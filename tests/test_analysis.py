import numpy as np
import pytest

from posmlp import analysis as A
from posmlp import model as M
from posmlp.gating import GatingKind
from posmlp.positional import CovarianceForm, GqpeParams


def gqpe_with(form, mats, dtype=np.float64):
    """One ``GqpeParams`` whose group g has ``mats[g]`` as its factor, delta frozen."""
    g = GqpeParams(form, delta_frozen=True, groups=len(mats), dtype=dtype)
    g.gamma.data[:] = mats
    return g


def gram_groups(mats, dtype=np.float64):
    return gqpe_with(CovarianceForm.GAMMA_GRAMIAN, mats, dtype)


def sqrt_det_oracle(params, exclusion=A.DEFAULT_EXCLUSION):
    """Determinant-based reference: sqrt(det P) averaged over included groups."""
    vals = []
    for p in params.effective_precision_numpy():
        lo, _ = A.symmetric_eigvals_2x2(p)
        if lo < exclusion:
            continue
        vals.append(np.sqrt(np.linalg.det(p)))
    return None if not vals else sum(vals) / len(vals)


# -- non-locality -----------------------------------------------------------------

def test_identity_precision_scores_one():
    eps = 1e-6
    entry = A.non_locality(gram_groups([np.eye(2) * np.sqrt(1 - eps)] * 4))
    assert entry.excluded_groups == 0
    assert abs(entry.value - 1.0) < 1e-9


def test_diagonal_precision_known_value():
    # precision diag(4, 9) -> sqrt(36) = 6
    entry = A.non_locality(gram_groups([np.diag([2.0, 3.0])]))
    assert abs(entry.value - np.sqrt((4 + 1e-6) * (9 + 1e-6))) < 1e-9
    assert abs(entry.value - 6.0) < 1e-5


def test_matches_determinant_oracle(rng):
    groups = gram_groups(rng.standard_normal((8, 2, 2)))
    entry = A.non_locality(groups)
    want = sqrt_det_oracle(groups)
    assert abs(entry.value - want) < 1e-10


def test_scaling_law_exact_for_power_of_two():
    rng = np.random.default_rng(3)
    mats = [rng.standard_normal((2, 2)) + 2 * np.eye(2) for _ in range(5)]
    base = A.non_locality(gram_groups(mats))
    # scale P by 4 by doubling gamma (P = G G^T + eps; use raw form for exactness)
    p = gram_groups(mats).effective_precision_numpy()
    a = A.non_locality(gqpe_with(CovarianceForm.GAMMA_RAW, p))
    b = A.non_locality(gqpe_with(CovarianceForm.GAMMA_RAW, 2.0 * p))
    assert b.value == 2.0 * a.value  # exact: powers of two scale every fp op exactly
    assert abs(a.value - base.value) < 1e-12


def test_near_singular_groups_are_excluded():
    mixed = gqpe_with(CovarianceForm.GAMMA_RAW, [np.eye(2), np.diag([1e-9, 1.0])])
    entry = A.non_locality(mixed)
    assert entry.included_groups == 1 and entry.excluded_groups == 1
    all_bad = A.non_locality(gqpe_with(CovarianceForm.GAMMA_RAW, [np.diag([1e-9, 1.0])]))
    assert all_bad.value is None and all_bad.excluded_groups == 1


def test_non_locality_rejects_wrong_inputs():
    with pytest.raises(TypeError):
        A.non_locality([])
    with pytest.raises(TypeError):
        A.non_locality([np.eye(2)])
    with pytest.raises(ValueError):
        GqpeParams(groups=0)


def test_model_non_locality_walks_quadratic_blocks():
    m = M.build_model(M.variant_config("MICRO"), rng=np.random.default_rng(0))
    entries = A.model_non_locality(m)
    assert len(entries) == sum(s.depth for s in m.config.stages)
    assert entries[0].layer == "stage0_block0"
    m2 = M.build_model(M.variant_config("MICRO", gating_kind=GatingKind.SGU),
                       rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        A.model_non_locality(m2)


# -- map files --------------------------------------------------------------------

def test_csv_roundtrip(tmp_path, rng):
    grid = rng.standard_normal((7, 7))
    path = tmp_path / "m.csv"
    A.write_map_csv(path, grid)
    back = A.read_map_csv(path)
    assert np.max(np.abs(back - grid)) < 1e-6


def test_pgm_flat_map_is_uniform_gray(tmp_path):
    path = tmp_path / "flat.pgm"
    A.write_map_pgm(path, np.zeros((5, 5)))
    img = A.read_map_pgm(path)
    assert (img == 128).all()


def test_pgm_extremes(tmp_path):
    grid = np.array([[0.0, 1.0], [0.25, 0.5]])
    path = tmp_path / "g.pgm"
    A.write_map_pgm(path, grid)
    img = A.read_map_pgm(path)
    assert img[0, 0] == 0 and img[0, 1] == 255


# -- exports ----------------------------------------------------------------------

def sharp_unit(k=7):
    from posmlp.gating import GatingConfig, GatingUnit
    cfg = GatingConfig(kind=GatingKind.GGQPE, window_side=k, groups=1,
                       covariance_form=CovarianceForm.ALPHA_I, delta_frozen=True)
    u = GatingUnit(cfg, 4, rng=np.random.default_rng(0), dtype=np.float64)
    u.gqpe.alpha_raw.data[:] = np.log(np.expm1(50.0))
    return u


def test_attention_export_brightest_pixel_is_query(tmp_path):
    u = sharp_unit()
    query = 3 * 7 + 2
    files = A.export_unit_attention_maps(u, query, tmp_path, layer="demo")
    pgm = [f for f in files if f.endswith(".pgm")][0]
    img = A.read_map_pgm(pgm)
    assert img.argmax() == query
    assert pgm.endswith(f"demo_0_{query}.pgm")


def test_attention_export_roundtrip_and_determinism(tmp_path):
    u = sharp_unit()
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    f1 = A.export_unit_attention_maps(u, 10, d1)
    f2 = A.export_unit_attention_maps(u, 10, d2)
    for a, b in zip(f1, f2):
        assert open(a, "rb").read() == open(b, "rb").read()
    csv = [f for f in f1 if f.endswith(".csv")][0]
    from posmlp.positional import group_weight_stack
    w = group_weight_stack(u.gqpe, u.grid).matrix(0)
    back = A.read_map_csv(csv).reshape(-1)
    assert np.max(np.abs(back - w[10])) < 1e-6


def test_attention_export_lrpe_zero_table_uniform_gray(tmp_path):
    from posmlp.gating import GatingConfig, GatingUnit
    cfg = GatingConfig(kind=GatingKind.LRPE, window_side=3)
    u = GatingUnit(cfg, 4, rng=np.random.default_rng(0), dtype=np.float64)
    u.lrpe.values.data[:] = 0.0
    files = A.export_unit_attention_maps(u, 4, tmp_path)
    img = A.read_map_pgm([f for f in files if f.endswith(".pgm")][0])
    assert (img == 128).all()


def test_attention_export_rejects_bad_query(tmp_path):
    with pytest.raises(IndexError):
        A.export_unit_attention_maps(sharp_unit(), 49, tmp_path)


@pytest.mark.parametrize("kind", list(GatingKind))
def test_attention_export_writes_the_rows_the_unit_mixes_with(tmp_path, monkeypatch, kind):
    # dense plus lookup for LRPE_M, the dense matrix for SGU; a quadratic
    # unit's export reads the recipe its forward kept and builds none, a
    # lookup or dense unit's export builds its stack once
    from posmlp.gating import GatingConfig, GatingUnit
    from posmlp.tensor import Tensor
    cfg = GatingConfig(kind=kind, window_side=3, groups=2 if kind.grouped else 1)
    u = GatingUnit(cfg, 8, rng=np.random.default_rng(0), dtype=np.float64)
    u.forward(Tensor(np.random.default_rng(1).standard_normal((2, 9, 8))))
    built, build = [], u._build_mixing_stack
    monkeypatch.setattr(u, "_build_mixing_stack", lambda: built.append(build()) or built[-1])
    query = 4
    files = A.export_unit_attention_maps(u, query, tmp_path)
    ggqpe = kind is GatingKind.GGQPE
    stack = u.mixing_stack() if ggqpe else built[0]
    assert len(built) == (0 if ggqpe else 1)
    csvs = [f for f in files if f.endswith(".csv")]
    assert len(csvs) == len(stack) == cfg.groups
    for g, path in enumerate(csvs):
        row = A.read_map_csv(path).reshape(-1)
        np.testing.assert_allclose(row, stack.matrix(g)[query], rtol=0, atol=1e-6)


def test_model_attention_export(tmp_path):
    m = M.build_model(M.variant_config("MICRO"), rng=np.random.default_rng(0))
    files = A.export_attention_maps(m, 0, tmp_path, layers=[0, 1], groups=[0])
    assert len(files) == 4
    assert any("stage0_block0_0_0.csv" in f for f in files)


def test_bias_maps_fresh_model_uniform(tmp_path):
    m = M.build_model(M.variant_config("MICRO"), rng=np.random.default_rng(0))
    files = A.export_bias_maps(m, tmp_path)
    assert files  # quadratic kind keeps the bias by default
    img = A.read_map_pgm([f for f in files if f.endswith(".pgm")][0])
    assert (img == 128).all()


def test_bias_maps_center_peak(tmp_path):
    m = M.build_model(M.variant_config("MICRO"), rng=np.random.default_rng(0))
    bias = m.stages[0][0].unit.bias
    k = m.config.stages[0].window_side
    bias.data[:] = 0.0
    center = (k // 2) * k + k // 2
    bias.data[center] = 5.0
    files = A.export_bias_maps(m, tmp_path)
    img = A.read_map_pgm([f for f in files if "stage0_block0" in f and f.endswith(".pgm")][0])
    assert img.argmax() == center


def test_bias_maps_empty_report_when_unbiased(tmp_path):
    m = M.build_model(M.variant_config("MICRO", use_bias=False),
                      rng=np.random.default_rng(0))
    assert A.export_bias_maps(m, tmp_path) == []


def test_csv_nine_significant_digits(tmp_path):
    grid = np.array([[0.123456789123, 1e-7], [123456.789, -3.0]])
    path = tmp_path / "p.csv"
    A.write_map_csv(path, grid)
    body = open(path).read().splitlines()
    assert body[1] == "0,0,0.123456789"
    back = A.read_map_csv(path)
    assert np.max(np.abs(back - grid) / np.maximum(np.abs(grid), 1e-30)) < 1e-8
