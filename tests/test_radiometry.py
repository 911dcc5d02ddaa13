import itertools
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aperture_forge import radiometry
from aperture_forge.radiometry import (
    BaselineSet,
    BrightnessMap,
    invert_visibilities,
    measured_temperature,
    mrla_spacings,
    visibility_samples,
)


def boresight_point_map(t_total=100.0, n_theta=2000, n_phi=8):
    """All the energy in the first theta row, integrating to t_total."""
    d_theta = (np.pi / 2) / n_theta
    d_phi = 2 * np.pi / n_phi
    theta0 = 0.5 * d_theta
    vals = np.zeros((n_theta, n_phi))
    vals[0, :] = t_total / (n_phi * np.sin(theta0) * d_theta * d_phi)
    return BrightnessMap(vals)


def gaussian_blob_map(sigma_l=0.15, n_theta=120, n_phi=240):
    return BrightnessMap.from_function(
        lambda th, ph: np.exp(-np.sin(th) ** 2 / (2 * sigma_l ** 2)),
        n_theta=n_theta, n_phi=n_phi)


# ------------------------------------------------------------- temperature

def test_zero_map_zero_temperature():
    assert measured_temperature(BrightnessMap(np.zeros((10, 20)))) == 0.0


def test_uniform_hemisphere_integrates_to_2pi():
    bmap = BrightnessMap.from_function(lambda th, ph: np.full_like(th, 7.0))
    assert measured_temperature(bmap) == pytest.approx(14 * np.pi, rel=1e-3)


def test_map_validation():
    with pytest.raises(ValueError):
        BrightnessMap(-np.ones((4, 4)))
    with pytest.raises(ValueError):
        BrightnessMap(np.ones(16))


# --------------------------------------------------------------- baselines

def negation_closed(uv):
    """True when every (u, v) has its mirror (-u, -v), which is what a
    Hermitian-symmetry check needs."""
    return all(np.any(np.all(np.abs(uv + row) < 1e-9, axis=1)) for row in uv)


def test_lattice_negation_closure():
    assert negation_closed(BaselineSet(5, 0.5).uv)
    # even count puts -N/2 on the grid without its mirror
    assert not negation_closed(BaselineSet(4, 0.5).uv)


def test_baseline_validation():
    for n in [0, -1]:
        with pytest.raises(ValueError, match=f"n must be >= 1, got n={n}"):
            BaselineSet(n, 0.5)
    for du in [0.0, -0.5, np.inf, np.nan]:
        with pytest.raises(ValueError, match="du must be finite and positive"):
            BaselineSet(5, du)


# ------------------------------------------------------------- visibility

def test_boresight_point_source_flat_visibility():
    bmap = boresight_point_map(t_total=50.0)
    bl = BaselineSet(9, 0.5)
    v = visibility_samples(bmap, bl)
    assert np.allclose(v, 50.0, rtol=1e-3)


def test_zero_baseline_visibility_is_total_temperature():
    bmap = gaussian_blob_map(n_theta=40, n_phi=80)
    bl = BaselineSet(4, 0.5)
    zero = (4 // 2) * 4 + 4 // 2  # u-major index of (n // 2, n // 2)
    assert np.array_equal(bl.uv[zero], [0.0, 0.0])
    v = visibility_samples(bmap, bl)
    assert v[zero].real == pytest.approx(measured_temperature(bmap), rel=1e-12)
    assert abs(v[zero].imag) <= 1e-12 * abs(v[zero].real)


def test_hermitian_symmetry_for_real_maps():
    rng = np.random.default_rng(3)
    vals = rng.random((30, 60)) + 0.2
    bmap = BrightnessMap(vals)
    bl = BaselineSet(5, 0.4)
    assert negation_closed(bl.uv)
    v = visibility_samples(bmap, bl)
    scale = np.max(np.abs(v))
    for i, row in enumerate(bl.uv):
        j = np.flatnonzero(np.all(np.abs(bl.uv + row) < 1e-12, axis=1))[0]
        assert abs(v[j] - np.conj(v[i])) <= 1e-12 * scale


@settings(deadline=None, max_examples=20)
@given(c=st.floats(0.0, 5.0))
def test_visibility_linear_in_brightness(c):
    rng = np.random.default_rng(4)
    a = rng.random((20, 40))
    b = rng.random((20, 40))
    bl = BaselineSet(4, 0.75)
    v_sum = visibility_samples(BrightnessMap(a + c * b), bl)
    v_a = visibility_samples(BrightnessMap(a), bl)
    v_b = visibility_samples(BrightnessMap(b), bl)
    assert np.allclose(v_sum, v_a + c * v_b, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("block", [None, 1000])
@pytest.mark.parametrize("make_set", [lambda: BaselineSet(9, 0.45)],
                         ids=["lattice"])
def test_visibilities_match_direct_quadrature(make_set, block, monkeypatch):
    if block is not None:  # walk the quadrature in several ragged blocks
        monkeypatch.setattr(radiometry, "_RAMP_BLOCK", block)
    rng = np.random.default_rng(6)
    bmap = BrightnessMap(rng.random((40, 80)))
    bl = make_set()
    l, m, w, t = bmap._quadrature()
    phase = np.exp(2j * np.pi * (np.outer(bl.uv[:, 0], l) + np.outer(bl.uv[:, 1], m)))
    direct = phase @ (t * w)
    got = visibility_samples(bmap, bl)
    assert np.max(np.abs(got - direct)) <= 1e-12 * np.sum(np.abs(t * w))


def _visibility_adjoint(y, bmap, bl):
    """The transposed quadrature: w_q Re sum_uv conj(exp(j 2 pi (u l_q +
    v m_q))) y_uv at each map cell, as a (theta, phi) map."""
    l, m, w, _ = bmap._quadrature()
    phase = np.exp(2j * np.pi * (np.outer(bl.uv[:, 0], l) + np.outer(bl.uv[:, 1], m)))
    return (w * (np.conj(phase).T @ y).real).reshape(bmap.values.shape)


@pytest.mark.parametrize("n", [17, 16])
def test_visibility_samples_passes_the_dot_product_test(n):
    # radiometry-roundtrip's 17 x 17 lattice, and an even one, whose row 0
    # has no mirror; the 3200-point map walks two blocks, the last ragged
    rng = np.random.default_rng(n)
    bl = BaselineSet(n, 0.45)
    for _ in range(3):
        bmap = BrightnessMap(rng.random((40, 80)))
        y = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
        lhs = np.vdot(y, visibility_samples(bmap, bl)).real
        rhs = np.sum(bmap.values * _visibility_adjoint(y, bmap, bl))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def _outer_visibilities(bmap, bl):
    """visibility_samples as one np.outer table per axis and block, every
    row exponentiated: the reference the in-place tables must match bit
    for bit."""
    l, m, w, t = bmap._quadrature()
    tw = t * w
    acc = np.zeros((bl.n, bl.n), dtype=complex)
    step = 8 * max(radiometry._RAMP_BLOCK // (16 * max(bl.n, 4)), 1)
    for q0 in range(0, len(l), step):
        ramp_u = np.exp(2j * np.pi * np.outer(bl.u, l[q0:q0 + step]))
        ramp_v = np.exp(2j * np.pi * np.outer(bl.u, m[q0:q0 + step])) * tw[q0:q0 + step]
        acc += ramp_u @ ramp_v.T
    return acc.ravel()


@pytest.mark.parametrize("block", [None, 1000])
@pytest.mark.parametrize("shape", [(17,), (9,), (32,), (4,), (1,), (5,), (6,), (8,), (16,),
                                   (33,)])
def test_mirrored_ramps_match_outer_formula_bitwise(shape, block, monkeypatch):
    # odd, even and one-point axes of square lattices; block 1000 walks
    # ragged blocks
    if block is not None:
        monkeypatch.setattr(radiometry, "_RAMP_BLOCK", block)
    bl = BaselineSet(*shape, 0.45)
    rng = np.random.default_rng(7)
    coords = rng.uniform(-1.0, 1.0, 500)
    table = np.empty((bl.n, coords.size), dtype=complex)
    radiometry._fill_ramps(table, bl.u, coords)
    assert np.array_equal(table, np.exp(2j * np.pi * np.outer(bl.u, coords)))
    for bmap in (gaussian_blob_map(), BrightnessMap(rng.random((40, 80)))):
        assert np.array_equal(visibility_samples(bmap, bl), _outer_visibilities(bmap, bl))


def test_mirrored_ramps_match_outer_formula_bitwise_at_one_blas_thread():
    # conj(exp(z)) == exp(conj(z)) bit for bit is a property of the libm
    # under numpy, and the GEMM's summation order of the BLAS threads
    root = pathlib.Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_mirrored_ramps_match_outer_formula_bitwise"],
        capture_output=True, text=True, timeout=120, cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1"))
    assert done.returncode == 0, done.stdout[-2000:]
    assert "20 passed" in done.stdout


@pytest.mark.parametrize("n", range(1, 40))
def test_fill_ramps_mirrors_each_row_by_index(n):
    # the centred axis is negation-closed about c = n // 2, every row is
    # written, row i < c (but row 0 of an even axis) is the conjugate of
    # row 2 c - i, and the table is the outer formula's bit for bit
    u, c = BaselineSet(n, 0.45).u, n // 2
    k = np.arange(1, n - c)
    assert u[c] == 0 and np.array_equal(u[c - k], -u[c + k])
    coords = np.concatenate([[-1.0, 0.0, 1.0], np.random.default_rng(n).uniform(-1, 1, 61)])
    table = np.full((n, coords.size), np.nan, dtype=complex)
    radiometry._fill_ramps(table, u, coords)
    assert np.all(np.isfinite(table))
    for i in range(1 - n % 2, c):
        assert np.array_equal(table[i], np.conjugate(table[2 * c - i]))
    assert np.array_equal(table, np.exp(2j * np.pi * np.outer(u, coords)))


@pytest.mark.parametrize("n", [17, 1])
def test_visibilities_at_scenario_defaults_do_not_depend_on_the_blas_thread_count(n):
    # radiometry-roundtrip's map and lattice: 15 blocks of 1920 points; its
    # smallest lattice, n_u = 1, takes 4 blocks of 8192 points
    root = pathlib.Path(__file__).resolve().parent.parent
    code = ("import hashlib, sys; sys.path.insert(0, 'tests'); import test_radiometry as t; "
            "print(hashlib.sha256(t.visibility_samples(t.gaussian_blob_map(), "
            f"t.BaselineSet({n}, 0.45)).tobytes()).hexdigest())")
    digests = {subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True,
        cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src"),
                           OPENBLAS_NUM_THREADS=str(threads))).stdout for threads in (1, 2)}
    assert len(digests) == 1


def test_visibility_peak_memory_at_scenario_defaults():
    # 120 x 240 map and 17 x 17 lattice as in radiometry-roundtrip; a
    # table of one ramp per baseline would take 289 * 28800 * 16 B = 133 MB.
    # A block of 8 * (2**16 // 272) = 1920 points holds the u and v tables
    # in 1.04 MB; allow 1.5 MB beside them for the five 28,800-point
    # quadrature vectors (1.2 MB) and one row of phases.
    bmap = gaussian_blob_map()
    bl = BaselineSet(17, 0.45)
    tracemalloc.start()
    try:
        visibility_samples(bmap, bl)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 17 * 1920 * 16 + 1.5e6


# -------------------------------------------------------------- inversion

def test_zero_visibilities_zero_image():
    bl = BaselineSet(9, 0.5)
    img = invert_visibilities(np.zeros(81), bl)
    assert np.all(img.values == 0)
    assert img.negative_fraction == 0.0


def test_point_source_inverts_to_boresight_peak():
    bmap = boresight_point_map(t_total=10.0, n_theta=500)
    bl = BaselineSet(17, 0.5)
    img = invert_visibilities(visibility_samples(bmap, bl), bl)
    peak = np.unravel_index(np.argmax(img.values), img.values.shape)
    assert peak == (8, 8)
    assert img.l[8] == 0.0


def test_blob_roundtrip_and_extent_sweep():
    sigma_l = 0.15
    bmap = gaussian_blob_map(sigma_l)
    big = BaselineSet(32, 0.5)
    v_big = visibility_samples(bmap, big).reshape(32, 32)

    def roundtrip_error(n):
        # the n-point lattice is a centered subset of the 32-point one
        lo = 16 - n // 2
        bl = BaselineSet(n, 0.5)
        img = invert_visibilities(v_big[lo:lo + n, lo:lo + n].ravel(), bl)
        truth = np.exp(-(img.l[:, None] ** 2 + img.l[None, :] ** 2)
                       / (2 * sigma_l ** 2))
        truth[img.l[:, None] ** 2 + img.l[None, :] ** 2 > 1.0] = 0.0
        return np.linalg.norm(img.values - truth) / np.linalg.norm(truth)

    assert roundtrip_error(32) < 0.05
    # in the truncation-dominated regime, more u-extent means less smear
    errs = [roundtrip_error(n) for n in (4, 8, 16)]
    assert errs[0] > errs[1] > errs[2]


def test_negative_ringing_reported_and_clipped_on_request():
    bmap = gaussian_blob_map(n_theta=60, n_phi=120)
    bl = BaselineSet(16, 0.5)
    v = visibility_samples(bmap, bl)
    raw = invert_visibilities(v, bl)
    clipped = invert_visibilities(v, bl, clip_negative=True)
    assert raw.negative_fraction > 0.0
    assert np.min(raw.values) < 0.0
    assert np.min(clipped.values) == 0.0
    assert clipped.negative_fraction == raw.negative_fraction


def test_jacobian_correction_scales_off_axis():
    # the raw inverse DFT returns T_r / cos(theta); the image is that
    # times cos(theta) = sqrt(1 - l^2 - m^2) on the disc, zero off it
    bl = BaselineSet(9, 0.5)
    v = np.random.default_rng(0).standard_normal(81) + 0j
    img = invert_visibilities(v, bl)
    raw = np.array([[0.25 * np.sum(v * np.exp(-2j * np.pi * (l * bl.uv[:, 0]
                                                             + m * bl.uv[:, 1]))).real
                     for m in img.l] for l in img.l])
    rr = img.l[:, None] ** 2 + img.l[None, :] ** 2
    assert np.any(rr > 1.0) and np.any(raw[rr > 1.0] != 0.0)
    want = np.where(rr <= 1.0, raw * np.sqrt(np.maximum(1.0 - rr, 0.0)), 0.0)
    assert np.max(np.abs(img.values - want)) <= 1e-12 * np.max(np.abs(raw))
    assert not np.allclose(img.values[rr <= 1.0], raw[rr <= 1.0])


def test_inversion_rejects_bad_lattices():
    with pytest.raises(ValueError, match="one visibility per baseline"):
        invert_visibilities(np.zeros(24), BaselineSet(5, 0.5))
    coarse = BaselineSet(5, 0.6)
    with pytest.raises(ValueError, match="0.5"):
        invert_visibilities(np.zeros(25), coarse)


# ------------------------------------------------------------------- mrla

def test_mrla_pinned_solutions():
    assert np.array_equal(mrla_spacings(2), [0, 1])
    assert np.array_equal(mrla_spacings(3), [0, 1, 3])
    assert np.array_equal(mrla_spacings(4), [0, 1, 4, 6])


def test_mrla_bounds():
    with pytest.raises(ValueError):
        mrla_spacings(1)
    with pytest.raises(ValueError):
        mrla_spacings(8)


def test_mrla_differences_cover_aperture():
    for n in range(2, 8):
        pos = mrla_spacings(n)
        diffs = [b - a for a, b in itertools.combinations(pos, 2)]
        assert set(diffs) == set(range(1, pos[-1] + 1))


def test_mrla_aperture_optimal_against_oracle():
    # independent search: largest L any n-subset of 0..L can cover
    for n in range(2, 6):
        best = 0
        for length in range(1, n * (n - 1) // 2 + 1):
            target = set(range(1, length + 1))
            for mid in itertools.combinations(range(1, length), n - 2):
                pos = (0,) + mid + (length,)
                if {b - a for a, b in itertools.combinations(pos, 2)} == target:
                    best = max(best, length)
                    break
        got = mrla_spacings(n)
        assert got[-1] == best
        diffs = [b - a for a, b in itertools.combinations(got, 2)]
        assert len(diffs) - len(set(diffs)) == n * (n - 1) // 2 - best
