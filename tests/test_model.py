import dataclasses

import numpy as np
import pytest

import meanfield_annealer
from meanfield_annealer import (Coupling, MagPair, ModelSpec,
                                build_dense_full_operator,
                                build_sparse_full_hamiltonian, conjugate_fields,
                                coupling_matrix, dense_energy_density,
                                dense_gradient, dense_hessian, global_minimize,
                                global_saddle, minimize, solve_saddle,
                                sparse_mean_field_density,
                                sparse_mean_field_gradient)
from meanfield_annealer.model import _coeffs, _indeterminate_flags
from conftest import central_diff, random_pair

X = MagPair([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
UP_UP = MagPair([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
UP_DOWN = MagPair([0.0, 0.0, 1.0], [0.0, 0.0, -1.0])


def test_energy_at_start_is_pure_transverse():
    for xi in [(0.0, 0.0, 0.0), (3.0, -2.0, 5.0), (-4.0, -4.0, -4.0)]:
        spec = ModelSpec.dense(xi=xi)
        assert dense_energy_density(spec, 0.0, X) == pytest.approx(-1.0, abs=1e-15)


def test_energy_final_states(dense_spec):
    assert dense_energy_density(dense_spec, 1.0, UP_UP) == pytest.approx(-1.005, abs=1e-12)
    assert dense_energy_density(dense_spec, 1.0, UP_DOWN) == pytest.approx(-0.995, abs=1e-12)
    # the all-up state is the lower of the two
    assert (dense_energy_density(dense_spec, 1.0, UP_UP)
            < dense_energy_density(dense_spec, 1.0, UP_DOWN))


def test_energy_rejects_bad_inputs(dense_spec):
    with pytest.raises(ValueError):
        dense_energy_density(dense_spec, 1.5, X)
    with pytest.raises(ValueError):
        dense_energy_density(dense_spec, float("nan"), X)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            MagPair([bad, 0, 0], [1, 0, 0])
        with pytest.raises(ValueError):
            MagPair([0, 0, 1], [1, 0, bad])


def test_gradient_hand_values(dense_spec):
    g1, g2 = dense_gradient(dense_spec, 0.0, X)
    assert np.allclose(g1, [-0.5, 0.0, 0.0], atol=1e-15)
    g1, g2 = dense_gradient(dense_spec, 1.0, UP_UP)
    assert np.allclose(g1, [0.0, 0.0, -1.25], atol=1e-12)
    assert np.allclose(g2, [0.0, 0.0, -0.505], atol=1e-12)


def test_gradient_matches_finite_differences(rng):
    for _ in range(100):
        xi = tuple(rng.uniform(-6, 6, 3))
        spec = ModelSpec.dense(xi=xi)
        s = rng.uniform(0, 1)
        m = random_pair(rng)
        g1, g2 = dense_gradient(spec, s, m)
        f1, f2 = central_diff(
            lambda a, b: dense_energy_density(spec, s, MagPair(a, b)), m.m1, m.m2)
        scale = max(1.0, np.linalg.norm(g1), np.linalg.norm(g2))
        assert np.linalg.norm(g1 - f1) / scale < 1e-6
        assert np.linalg.norm(g2 - f2) / scale < 1e-6


def test_hessian_hand_values():
    spec = ModelSpec.dense()
    H = dense_hessian(spec, 1.0)
    assert H[2, 2] == pytest.approx(-0.5)
    assert H[2, 5] == pytest.approx(-0.25)
    assert np.abs(H[[0, 1, 3, 4]][:, [0, 1, 3, 4]]).max() == 0.0
    xi = 3.7
    H = dense_hessian(ModelSpec.dense(xi=(0.0, 0.0, xi)), 0.5)
    assert H[0, 3] == pytest.approx(-xi / 16.0)


def test_hessian_symmetric_and_state_independent(rng):
    for _ in range(10):
        spec = ModelSpec.dense(xi=tuple(rng.uniform(-8, 8, 3)))
        s = rng.uniform(0, 1)
        H = dense_hessian(spec, s)
        assert np.abs(H - H.T).max() < 1e-12
        # consistency with the gradient by finite differences
        m = random_pair(rng)
        for j in range(6):
            step = 1e-6
            up = np.concatenate([m.m1, m.m2])
            dn = up.copy()
            up[j] += step
            dn[j] -= step
            gu = np.concatenate(dense_gradient(spec, s, MagPair(up[:3], up[3:])))
            gd = np.concatenate(dense_gradient(spec, s, MagPair(dn[:3], dn[3:])))
            assert np.allclose((gu - gd) / (2 * step), H[:, j], atol=1e-6)


def test_no_y_dependence(rng):
    for _ in range(20):
        spec = ModelSpec.dense(xi=tuple(rng.uniform(-8, 8, 3)))
        s = rng.uniform(0, 1)
        m = random_pair(rng)
        flipped = MagPair(m.m1 * [1, -1, 1], m.m2 * [1, -1, 1])
        assert dense_energy_density(spec, s, m) == dense_energy_density(spec, s, flipped)


def test_sparse_mean_field_values(sparse_spec):
    assert sparse_mean_field_density(sparse_spec, 0.0, X) == pytest.approx(-1.0)
    assert sparse_mean_field_density(sparse_spec, 1.0, UP_UP) == pytest.approx(-0.755)


def test_sparse_mean_field_rejects_dense(dense_spec):
    with pytest.raises(ValueError):
        sparse_mean_field_density(dense_spec, 0.3, X)
    with pytest.raises(ValueError):
        sparse_mean_field_gradient(dense_spec, 0.3, X)
    with pytest.raises(ValueError):
        coupling_matrix(dense_spec, 0.3)


def test_sparse_gradient_finite_differences(rng):
    for _ in range(30):
        spec = ModelSpec.sparse(xi=tuple(rng.uniform(-6, 6, 3)))
        s = rng.uniform(0, 1)
        m = random_pair(rng)
        g1, g2 = sparse_mean_field_gradient(spec, s, m)
        f1, f2 = central_diff(
            lambda a, b: sparse_mean_field_density(spec, s, MagPair(a, b)), m.m1, m.m2)
        scale = max(1.0, np.linalg.norm(g1), np.linalg.norm(g2))
        assert np.linalg.norm(g1 - f1) / scale < 1e-6
        assert np.linalg.norm(g2 - f2) / scale < 1e-6


def test_sparse_mean_field_against_independent_polynomial(rng):
    # independently coded reference for the mean-field part
    def reference(spec, s, m):
        g1, g2 = (s if g is None else g for g in (spec.gamma1, spec.gamma2))
        h1, h2, x11, x22 = spec.h1, spec.h2, spec.xi11, spec.xi22
        return (-s / 2 * (h1 * m.m1[2] + h2 * m.m2[2])
                - s / 4 * (m.m1[2] ** 2 + m.m2[2] ** 2)
                - (1 - g1) / 2 * m.m1[0] - (1 - g2) / 2 * m.m2[0]
                - s * (1 - s) / 4 * (x11 * m.m1[0] ** 2 + x22 * m.m2[0] ** 2))

    for _ in range(20):
        spec = ModelSpec.sparse(xi=tuple(rng.uniform(-6, 6, 3)))
        s = rng.uniform(0, 1)
        m = random_pair(rng)
        assert sparse_mean_field_density(spec, s, m) == pytest.approx(
            reference(spec, s, m), abs=1e-14)


def test_coupling_matrix_values(sparse_spec):
    assert np.abs(coupling_matrix(sparse_spec, 0.0)).max() == 0.0
    K = coupling_matrix(sparse_spec, 1.0)
    assert K[2, 2] == pytest.approx(0.5)
    assert K[0, 0] == 0.0
    K = coupling_matrix(ModelSpec.sparse(xi=(0.0, 0.0, -4.0)), 0.5)
    assert K[2, 2] == pytest.approx(0.25)
    assert K[0, 0] == pytest.approx(-0.5)
    assert np.abs(K - np.diag(np.diag(K))).max() == 0.0


def test_stoquastic_predicate():
    assert ModelSpec.dense().is_stoquastic
    assert ModelSpec.sparse(xi=(1.0, 2.0, 3.0)).is_stoquastic
    assert not ModelSpec.dense(xi=(-0.1, 0.0, 0.0)).is_stoquastic
    assert not ModelSpec.dense(xi=(0.0, -0.1, 0.0)).is_stoquastic
    assert not ModelSpec.sparse(xi=(0.0, 0.0, -0.1)).is_stoquastic


def test_cluster_field_defaults_and_warning():
    spec = ModelSpec.dense()
    assert spec.h1 == 1.0 and spec.h2 == -0.49
    assert ModelSpec.sparse(h1=2.0, h2=-1.0).h1 == 2.0
    with pytest.warns(UserWarning):
        ModelSpec.dense(h1=-1.0, h2=-0.49)
    with pytest.warns(UserWarning):
        ModelSpec(Coupling.SPARSE, h2=0.5)
    with pytest.raises(ValueError, match="h1 must be finite"):
        ModelSpec.dense(h1=float("inf"))


def test_spec_is_eight_plain_floats():
    names = [f.name for f in dataclasses.fields(ModelSpec)]
    assert names == ["coupling", "h1", "h2", "xi11", "xi22", "xi12", "gamma1", "gamma2"]
    spec = ModelSpec.dense(xi=(0, 0, -4), h1=2, h2=-1, gamma1=1, gamma2=0)
    assert all(type(getattr(spec, name)) is float for name in names[1:])
    a, b = ModelSpec.dense(xi=(0, 0, -4)), ModelSpec.dense(xi=(0.0, 0.0, -4.0))
    assert a == b and hash(a) == hash(b)
    assert a != ModelSpec.sparse(xi=(0.0, 0.0, -4.0))


def test_spec_rejects_non_finite_numbers():
    for key in ("h1", "h2", "xi11", "xi22", "xi12"):
        for bad in (float("nan"), float("inf"), None):
            with pytest.raises(ValueError, match=f"{key} must be finite"):
                ModelSpec(Coupling.DENSE, **{key: bad})


def test_spec_rejects_malformed_xi():
    for bad in ((0.0, -4.0), (0.0, 0.0, -4.0, 1.0), ()):
        for factory in (ModelSpec.dense, ModelSpec.sparse):
            with pytest.raises(ValueError, match=r"xi must be \(xi11, xi22, xi12\)"):
                factory(xi=bad)


def test_spec_coupling_from_its_name():
    assert ModelSpec("sparse") == ModelSpec.sparse()
    assert ModelSpec("dense", xi12=-4) == ModelSpec.dense(xi=(0.0, 0.0, -4.0))
    assert ModelSpec("sparse").coupling is Coupling.SPARSE
    # a string-coupled sparse spec reaches the sparse solver
    assert global_saddle(ModelSpec("sparse"), 0.5).converged
    with pytest.raises(ValueError):
        ModelSpec("all-to-all")


def test_public_names_resolve():
    for name in meanfield_annealer.__all__:
        assert hasattr(meanfield_annealer, name), name
    for gone in ("ClusterFields", "CatalystConfig"):
        assert not hasattr(meanfield_annealer, gone)
        assert gone not in meanfield_annealer.__all__


def test_schedules():
    # None follows gamma(s) = s; a number pins gamma, and a falsy 0.0 still pins
    ss = np.linspace(0, 1, 11)
    assert [_coeffs(ModelSpec.dense(), s).a1 for s in ss] == [(1.0 - s) / 2.0 for s in ss]
    assert all(_coeffs(ModelSpec.dense(gamma1=0.0), s).a1 == 0.5 for s in ss)
    assert all(_coeffs(ModelSpec.sparse(gamma2=0.3), s).a2 == (1.0 - 0.3) / 2.0 for s in ss)
    spec = ModelSpec.dense(gamma1=1)
    assert type(spec.gamma1) is float and spec.gamma2 is None
    assert spec == ModelSpec.dense(gamma1=1.0) and hash(spec) == hash(ModelSpec.dense(gamma1=1.0))
    assert spec != ModelSpec.dense(gamma2=1.0)
    # a cluster is indeterminate at s = 0 only when its schedule is pinned at 1
    assert _indeterminate_flags(spec, 0.0) == (True, False)
    assert _indeterminate_flags(ModelSpec.sparse(gamma2=1.0), 0.0) == (False, True)
    assert _indeterminate_flags(spec, 0.1) == (False, False)
    assert _indeterminate_flags(ModelSpec.dense(), 0.0) == (False, False)


def test_spec_rejects_non_finite_gammas():
    for bad in (float("nan"), float("inf"), -float("inf")):
        for factory in (ModelSpec.dense, ModelSpec.sparse):
            for key in ("gamma1", "gamma2"):
                with pytest.raises(ValueError, match=f"{key} must be finite"):
                    factory(**{key: bad})


def test_spec_requires_two_clusters():
    with pytest.raises(TypeError):
        ModelSpec(clusters=3)


def test_dense_and_sparse_full_operators_coincide_at_two_sites(rng):
    # with one site per cluster the all-to-all and one-to-one intercluster
    # couplings are the same single pair, at the same weight 1/N = 1/2
    for _ in range(20):
        xi = tuple(rng.uniform(-6, 6, 3))
        s = rng.uniform(0, 1)
        dense = build_dense_full_operator(ModelSpec.dense(xi=xi), s, 2).to_dense()
        sparse = build_sparse_full_hamiltonian(ModelSpec.sparse(xi=xi), s, 2).to_dense()
        assert np.abs(dense - sparse).max() < 1e-14


def test_solvers_and_public_functions_read_one_polynomial(rng):
    for _ in range(20):
        xi = tuple(rng.uniform(-6, 6, 3))
        s = rng.uniform(0.05, 1)
        dense = ModelSpec.dense(xi=xi)
        for state in (minimize(dense, s, random_pair(rng)), global_minimize(dense, s)):
            assert state.energy == dense_energy_density(dense, s, state.m)
        sparse = ModelSpec.sparse(xi=xi)
        sol = solve_saddle(sparse, s, random_pair(rng))
        mt = conjugate_fields(sparse, s, sol.m)
        assert sol.fields == (mt[0][0], mt[0][2], mt[1][0], mt[1][2])
