from collections import Counter

import numpy as np
import pytest

from pseudoherm import (
    EnsembleSpec,
    NoPositiveMetric,
    OperatorClass,
    build_positive_metric,
    classify,
    eig_full,
    jordan_block,
    pt2x2,
    verify_intertwining,
)
from pseudoherm.linalg import KAPPA_MAX
import pseudoherm.models as models
from pseudoherm.models import GAP, KINDS, generate

import oracles
from oracles import pt2x2_eigenvalues, spectra_mismatch

EPS = np.finfo(float).eps


def test_pt2x2_entries():
    H = pt2x2(1.0, np.pi / 6, 1.0)
    assert H[0, 1] == H[1, 0] == 1.0
    assert H[0, 0] == pytest.approx(np.exp(1j * np.pi / 6))
    assert H[1, 1] == pytest.approx(np.exp(-1j * np.pi / 6))


@pytest.mark.parametrize("r,theta,s", [
    (1.0, np.pi / 6, 1.0),
    (1.0, np.pi / 2, 0.5),
    (0.7, 1.1, 0.3),
    (2.0, -0.4, 1.5),
])
def test_pt2x2_matches_closed_form(r, theta, s):
    lam = pt2x2_eigenvalues(r, theta, s)
    got = np.linalg.eigvals(pt2x2(r, theta, s))
    assert spectra_mismatch(got, lam) < 1e-12


def test_pt2x2_special_values():
    got = np.linalg.eigvals(pt2x2(1.0, np.pi / 6, 1.0))
    assert spectra_mismatch(got, [0.0, np.sqrt(3)]) < 1e-12
    got = np.linalg.eigvals(pt2x2(1.0, np.pi / 2, 0.5))
    assert spectra_mismatch(got, [-1j * np.sqrt(3) / 2, 1j * np.sqrt(3) / 2]) < 1e-12


def test_pt2x2_theta_zero_is_hermitian():
    for s in (0.0, 0.3, 2.0):
        assert classify(pt2x2(1.0, 0.0, s)).kind is OperatorClass.HERMITIAN


def test_random_quasi_plantation():
    H, lam, S = generate(EnsembleSpec(6, 7, "quasi"))
    assert np.linalg.cond(S, 2) <= 1e3
    assert np.min(np.diff(np.sort(lam.real))) >= 1e-3
    assert classify(H).kind is OperatorClass.QUASI_HERMITIAN
    got = np.sort(eig_full(H).eigenvalues.real)
    assert np.max(np.abs(got - lam.real) / (1 + np.abs(lam.real))) < 1e-9


def test_random_pseudo_nonquasi_plantation():
    for seed in range(6):
        H, lam, _ = generate(EnsembleSpec(5, seed, "pseudo_nonquasi"))
        assert np.max(lam.imag) >= 1e-2   # at least one genuine pair
        assert classify(H).kind is OperatorClass.PSEUDO_HERMITIAN_ONLY
        with pytest.raises(NoPositiveMetric):
            build_positive_metric(eig_full(H))


def test_jordan_block_shape_and_classification():
    J = jordan_block(2, 0.0)
    assert np.array_equal(J, np.array([[0, 1], [0, 0]], dtype=complex))
    assert classify(J).kind is OperatorClass.NON_DIAGONALIZABLE
    assert eig_full(jordan_block(3, 1.0)).diag_score > KAPPA_MAX
    with pytest.raises(ValueError, match="n >= 2"):
        jordan_block(1, 0)


def test_jordan_block_is_sigma1_intertwined():
    # defective yet exactly intertwined by sigma1: metric existence does not
    # require diagonalizability, the classifier just refuses to decide there
    J = jordan_block(2, 0.0)
    sigma1 = np.array([[0, 1], [1, 0]], dtype=complex)
    assert verify_intertwining(J, sigma1) == 0.0


def test_generate_dispatch_matches_planted_kind():
    expected = {
        "quasi": OperatorClass.QUASI_HERMITIAN,
        "pseudo_nonquasi": OperatorClass.PSEUDO_HERMITIAN_ONLY,
        "hermitian": OperatorClass.HERMITIAN,
        "defective": OperatorClass.NON_DIAGONALIZABLE,
    }
    for kind, want in expected.items():
        for seed in range(4):
            spec = EnsembleSpec(dim=4, seed=seed, kind=kind)
            out = generate(spec)
            H = out[0] if isinstance(out, tuple) else out
            assert classify(H).kind is want, (kind, seed)


def test_hermitian_control_is_hermitian():
    H = generate(EnsembleSpec(5, 1, "hermitian"))
    assert np.allclose(H, H.conj().T)


def test_ensemble_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(dim=3, seed=0, kind="nope")
    with pytest.raises(ValueError):
        EnsembleSpec(dim=0, seed=0, kind="quasi")
    with pytest.raises(ValueError):
        EnsembleSpec(dim=1, seed=0, kind="pseudo_nonquasi")
    with pytest.raises(ValueError):
        EnsembleSpec(dim=1, seed=0, kind="defective")


def test_ensemble_spec_refuses_dims_the_gaps_do_not_fit():
    # 2001 eigenvalues GAP = 1e-3 apart fill [-1, 1] exactly; 2002 do not fit.
    for kind in ("quasi", "pseudo_nonquasi"):
        EnsembleSpec(dim=2001, seed=0, kind=kind)
        with pytest.raises(ValueError, match="do not fit"):
            EnsembleSpec(dim=2002, seed=0, kind=kind)
    for kind in ("hermitian", "defective"):
        EnsembleSpec(dim=2002, seed=0, kind=kind)
    vals = models._spaced(np.array([np.random.default_rng(1)]), 2001)[0]
    assert vals.min() >= -1.0 and vals.max() <= 1.0
    assert np.diff(np.sort(vals)).min() >= GAP * (1 - 1e-9)


@pytest.mark.parametrize("seeds", [range(2000), [2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 + 3]],
                         ids=["0-1999", "word-boundaries"])
def test_generate_seeds_each_instance_as_default_rng(seeds):
    # One array pass seeds a group's generators; each stream is default_rng(seed)'s bit
    # for bit, for seeds of one to five 32-bit words (2^128 + 3 is past SeedSequence's
    # 4-word pool) in one group.  A defective instance's first draws are its eigenvalue.
    H, _, _, rngs = generate([EnsembleSpec(2, seed, "defective") for seed in seeds])
    for seed, M, rng in zip(seeds, H, rngs):
        want = np.random.default_rng(seed)
        assert M[0, 0] == complex(want.uniform(-1, 1), want.uniform(-1, 1)), seed
        assert rng.bit_generator.state == want.bit_generator.state, seed
        assert np.array_equal(rng.standard_normal(3), want.standard_normal(3)), seed


def test_generate_refuses_a_negative_seed_as_default_rng_does():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        generate([EnsembleSpec(2, 0, "defective"), EnsembleSpec(2, -1, "defective")])


def test_generate_refuses_empty_and_mixed_dims():
    with pytest.raises(ValueError):
        generate([])
    with pytest.raises(ValueError):
        generate([EnsembleSpec(3, 0), EnsembleSpec(4, 1, "hermitian")])


# Mixed-kind stacks: dims 1-8 and 40, and stacks generated under tight values of
# CONDITIONING_CAP.  At dim 6, cap 8 most Gaussian draws exceed the cap.  At the
# other three the cap interleaves with ||S||_F ||S^-1||_F: the stacks hold rows that
# bound settles, rows it leaves to the SVD that pass, and rows the SVD floors.
ORACLE_STACKS = {
    f"dim {dim}": [EnsembleSpec(dim, 97 * dim + i, kinds[i % len(kinds)])
                   for i in range(32 if dim == 40 else 24)]
    for dim in (1, 2, 3, 4, 5, 6, 7, 8, 40)
    for kinds in [KINDS if dim > 1 else ("quasi", "hermitian")]
}
ORACLE_STACKS["dim 6, cap 8"] = [EnsembleSpec(6, 700 + i, KINDS[i % 4]) for i in range(24)]
TIGHT_CAPS = {"dim 6, cap 8": 8.0}
for dim, cap, base in ((4, 3.0, 800), (5, 20.0, 900), (8, 60.0, 1000)):
    name = f"dim {dim}, cap {cap:g}"
    ORACLE_STACKS[name] = [EnsembleSpec(dim, base + i, KINDS[i % 4]) for i in range(48)]
    TIGHT_CAPS[name] = cap


def oracle_stacks(monkeypatch):
    """(name, specs) of each ORACLE_STACKS entry, with models.CONDITIONING_CAP
    set to the stack's cap while the caller works on it."""
    default = models.CONDITIONING_CAP
    for name, specs in ORACLE_STACKS.items():
        monkeypatch.setattr(models, "CONDITIONING_CAP", TIGHT_CAPS.get(name, default))
        yield name, specs


def assert_planted(spec, H, lam=None, S=None):
    """The properties generate plants for spec, checked on its output."""
    n = spec.dim
    if spec.kind == "hermitian":
        assert np.array_equal(H, H.conj().T), spec
        return
    if spec.kind == "defective":
        mu = H[0, 0]
        assert max(abs(mu.real), abs(mu.imag)) <= 1.0, spec
        assert np.array_equal(H, jordan_block(n, mu)), spec
        return
    dist = np.abs(lam[:, None] - lam[None, :]) + np.eye(n)
    assert dist.min() >= GAP and np.abs(lam.real).max() <= 1.0, spec
    if spec.kind == "quasi":
        assert np.all(lam.imag == 0) and np.all(np.diff(lam.real) > 0), spec
    else:
        pairs = np.count_nonzero(lam.imag)
        assert pairs >= 2 and np.abs(lam.imag[:pairs]).min() >= 1e-2, spec
        assert np.array_equal(lam[pairs // 2:pairs], lam[:pairs // 2].conj()), spec
        # Pair centres are spaced like the real fill, whatever their Im parts.
        assert np.diff(np.sort(lam.real[:pairs // 2])).min(initial=GAP) >= GAP, spec
    # The floor leaves cond_2(S) at the cap up to the roundoff of the SVD.
    cond = np.linalg.cond(S, 2)
    assert cond <= models.CONDITIONING_CAP * (1 + 1e-12), spec
    # H S = S diag(lam): each product and the inverse are backward stable,
    # so the residual is a few n eps cond(S) relative to ||S|| max|lam|.
    residual = np.linalg.norm(H @ S - S * lam, 2)
    assert residual <= 4 * n * EPS * cond * np.linalg.norm(S, 2) * np.abs(lam).max(), spec


def single(spec):
    """generate(spec) as a tuple (H, planted eigenvalues, S) or (H,)."""
    out = generate(spec)
    return out if isinstance(out, tuple) else (out,)


def test_stacked_generate_matches_single_specs(monkeypatch):
    for name, specs in oracle_stacks(monkeypatch):
        stack = generate(specs)[0]
        assert stack.shape == (len(specs), specs[0].dim, specs[0].dim), name
        for H, spec in zip(stack, specs):
            got = single(spec)
            assert len(got) == (3 if spec.kind in ("quasi", "pseudo_nonquasi") else 1), spec
            assert got[0].dtype == H.dtype and np.array_equal(got[0], H), spec
            assert all(a.dtype == complex for a in got), spec


def same_generation(got, want):
    """Two generate results of one stack agree bit for bit: H, planted
    eigenvalues, S and each generator's next draws."""
    return (all(a.tobytes() == b.tobytes() for a, b in zip(got[:3], want[:3]))
            and all(np.array_equal(a.standard_normal(4), b.standard_normal(4))
                    for a, b in zip(got[3], want[3])))


def test_generate_matches_the_svd_capped_similarity(monkeypatch):
    for name, specs in oracle_stacks(monkeypatch):
        got = generate(specs)
        with monkeypatch.context() as frozen:
            frozen.setattr(models, "_similar", oracles.svd_capped_similar)
            assert same_generation(got, generate(specs)), name


def test_only_rows_the_bound_leaves_open_reach_the_svd(monkeypatch):
    # cond_2(S) <= ||S||_F ||S^-1||_F: a row bounded by half the cap skips the
    # value-only SVD, which takes exactly the others (the frozen _similar takes all).
    drawn, seen, rows = [], [], Counter()
    biorthonormalize, svd = models.biorthonormalize, np.linalg.svd
    monkeypatch.setattr(models, "biorthonormalize",
                        lambda S: drawn.append(S.copy()) or biorthonormalize(S))

    def recording(A, *args, **kwargs):
        if kwargs.get("compute_uv") is False:
            seen.append(A)
        return svd(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    for name, specs in oracle_stacks(monkeypatch):
        drawn.clear()
        seen.clear()
        S = generate(specs)[2]
        (draw,), (open_rows,) = drawn, seen
        bound = (np.linalg.norm(draw, axis=(-2, -1))
                 * np.linalg.norm(np.linalg.inv(draw), axis=(-2, -1)))
        settled = bound <= models.CONDITIONING_CAP / 2
        assert np.array_equal(open_rows, draw[~settled]), name
        floored = np.count_nonzero(np.any(S != draw, axis=(-2, -1)))
        tight = name in TIGHT_CAPS
        rows[tight, "settled"] += np.count_nonzero(settled)
        rows[tight, "open, passed"] += len(open_rows) - floored
        rows[tight, "floored"] += floored
    assert min(rows[True, key] for key in ("settled", "open, passed", "floored")) > 0, rows
    assert rows[False, "open, passed"] + rows[False, "floored"] < rows[False, "settled"], rows


def test_a_refused_inverse_is_floored_and_inverted_again(monkeypatch):
    # Where LAPACK refuses S, biorthonormalize's pinv stands in and the row goes to
    # the SVD, which floors it; the floored S is inverted again.  Here inv refuses
    # every S past twice the cap, as it refuses an exactly singular one.
    inv, refused = np.linalg.inv, []

    def refusing(A):
        if np.any(np.linalg.cond(A) > 2 * models.CONDITIONING_CAP):
            refused.append(len(A))
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(A)

    for name, specs in oracle_stacks(monkeypatch):
        want = generate(specs)
        with monkeypatch.context() as lapack:
            lapack.setattr(np.linalg, "inv", refusing)
            assert same_generation(generate(specs), want), name
    assert refused.count(1) > 0   # a matrix biorthonormalize inverted alone, refused


def test_stacked_planted_eigenvalues_are_nan_where_none_are_planted():
    specs = ORACLE_STACKS["dim 8"]
    lam = generate(specs)[1]
    for row, spec in zip(lam, specs):
        if spec.kind in ("hermitian", "defective"):
            assert np.all(np.isnan(row)), spec
        else:
            assert row.tobytes() == generate(spec)[1].tobytes(), spec


def test_generate_plants_its_properties(monkeypatch):
    for _, specs in oracle_stacks(monkeypatch):
        for spec in specs:
            assert_planted(spec, *single(spec))


def test_generate_keeps_the_draws_the_rejection_sampler_accepted(monkeypatch):
    # Against the frozen rejection samplers: a spec that drew no second attempt
    # has the same S, and each eigenvalue moved by at most (n - 1) GAP, since
    # the gaps come from shortening the interval and adding GAP * rank.
    # Where the sampler redrew, it consumed other draws, and nothing is shared.
    accepted = Counter()
    for _, specs in oracle_stacks(monkeypatch):
        for spec in specs:
            redraws = Counter()
            want = oracles.sample_instance(spec, redraws)
            if redraws:
                continue
            accepted[spec.kind] += 1
            got = single(spec)
            if spec.kind in ("hermitian", "defective"):
                assert np.array_equal(got[0], want), spec
                continue
            assert np.array_equal(got[2], want[2]), spec
            assert np.abs(got[1] - want[1]).max() <= (spec.dim - 1) * GAP, spec
    assert set(accepted) == set(KINDS), accepted


def test_generate_finishes_at_large_dims():
    for dim in (200, 400):
        for i, kind in enumerate(KINDS):
            spec = EnsembleSpec(dim, 5 + i, kind)
            assert_planted(spec, *single(spec))


def test_generate_meets_a_tight_cap_at_dim_40(monkeypatch):
    # Gaussian 40 x 40 draws have cond_2 in the hundreds, so the floor sets
    # every singular value ratio to the cap.
    monkeypatch.setattr(models, "CONDITIONING_CAP", 8.0)
    specs = [EnsembleSpec(40, 11 + i, ("quasi", "pseudo_nonquasi")[i % 2]) for i in range(6)]
    for H, spec in zip(generate(specs)[0], specs):
        got = single(spec)
        assert np.array_equal(got[0], H), spec
        assert_planted(spec, *got)
        assert np.linalg.cond(got[2], 2) >= 8.0 * (1 - 1e-12), spec


def test_reality_threshold_coarse_scan():
    # transition between complex-pair and real spectra sits at s = r sin(theta)
    r, theta = 1.0, np.pi / 4
    crossing = r * np.sin(theta)
    assert classify(pt2x2(r, theta, crossing - 0.01)).kind is OperatorClass.PSEUDO_HERMITIAN_ONLY
    assert classify(pt2x2(r, theta, crossing + 0.01)).kind is OperatorClass.QUASI_HERMITIAN
