import json
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qtomo import simulation
from qtomo.estimators import constrained_estimate, constrained_rows, unconstrained_estimate
from qtomo.linalg import EigenDecompositionError, InvariantError, fidelity_rows, hs_distance, psd_rows
from qtomo.measurement import MAX_DIM, MeasurementPlan, linear_scheme, sample_plan_counts, stream_rng
from qtomo.simulation import (
    CHUNK_TRIALS,
    METRICS,
    ConfigError,
    ExperimentConfig,
    RandomState,
    indefinite_decay_rate,
    pure_state_det_mean,
    run_trajectory,
)
from qtomo.states import bloch_to_matrix, random_density

from oracles import eigh_rows

MIXED_QUBIT = bloch_to_matrix([0.3, 0.2, 0.1])
FIGURE_SPECTRUM = (0.1186, 0.2871, 0.5943)
CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


class TestConfigValidation:
    def base(self, **overrides):
        kwargs = dict(
            state=MIXED_QUBIT,
            scheme="klevel-pairs",
            schedule=(5, 10),
            trials=100,
            seed=1,
        )
        kwargs.update(overrides)
        return ExperimentConfig(**kwargs)

    def test_valid_config(self):
        cfg = self.base()
        assert cfg.schedule == (5, 10)
        assert cfg.metrics == METRICS

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            self.base(scheme="tetra")

    @pytest.mark.parametrize("dim", [MAX_DIM + 1, 2**62])
    def test_random_dim_above_the_bound(self, dim):
        with pytest.raises(ConfigError, match=f"from 2 to {MAX_DIM}"):
            RandomState(dim)
        assert RandomState(MAX_DIM).dim == MAX_DIM

    def test_matrix_state_above_the_bound(self):
        dim = MAX_DIM + 1
        with pytest.raises(ConfigError, match=f"state dim {dim} exceeds {MAX_DIM}"):
            self.base(state=np.eye(dim) / dim)

    def test_schedule_fits_the_sampler(self):
        # Shots per setting reach numpy's multinomial as a C long.
        cfg = self.base(scheme="minimal", schedule=(2**63 - 1,))
        assert cfg.schedule == (2**63 - 1,)
        for schedule in [(2**63,), (5, 10**23)]:
            with pytest.raises(ConfigError, match="schedule entries"):
                self.base(schedule=schedule)

    @pytest.mark.parametrize(
        "scheme, state, settings",
        [
            ("klevel-pairs", MIXED_QUBIT, 3),
            ("klevel-pairs", RandomState(10), 99),
            ("three-direction", MIXED_QUBIT, 3),
            ("standard", MIXED_QUBIT, 1),
            ("minimal", MIXED_QUBIT, 1),
        ],
    )
    def test_copies_fit_int64(self, scheme, state, settings):
        # The copies n of a point, shots times settings, are int64.
        top = (2**63 - 1) // settings
        assert self.base(scheme=scheme, state=state, schedule=(top,)).schedule == (top,)
        with pytest.raises(ConfigError, match="schedule entr"):
            self.base(scheme=scheme, state=state, schedule=(5, top + 1))

    @pytest.mark.parametrize("scheme", ["klevel-pairs", "three-direction"])
    def test_largest_copies_do_not_wrap(self, scheme):
        top = (2**63 - 1) // 3
        cfg = self.base(scheme=scheme, schedule=(top,), trials=2, metrics=("hs-unconstrained",))
        record = run_trajectory(cfg)
        assert record.copies.tolist() == [3 * top]
        assert record.rows()[0][0] == 3 * top

    def test_schedule_must_increase(self):
        with pytest.raises(ConfigError):
            self.base(schedule=(10, 10))
        with pytest.raises(ConfigError):
            self.base(schedule=(10, 5))
        with pytest.raises(ConfigError):
            self.base(schedule=())
        with pytest.raises(ConfigError):
            self.base(schedule=(0, 5))

    def test_trials_positive(self):
        with pytest.raises(ConfigError):
            self.base(trials=0)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(schedule=(10.7, 20.2)),
            dict(schedule=(True, 5)),
            dict(trials=100.9),
            dict(trials=True),
            dict(seed=1.5),
            dict(seed=False),
            dict(schedule=("5", "10")),
            dict(schedule=5),
            dict(schedule=None),
        ],
    )
    def test_counts_and_seed_must_be_integers(self, overrides):
        # Non-integers are rejected, never truncated.
        with pytest.raises(ConfigError, match="integers"):
            self.base(**overrides)

    def test_numpy_integers_accepted(self):
        cfg = self.base(schedule=np.array([5, 10]), trials=np.int64(100), seed=np.uint64(1))
        assert cfg.schedule == (5, 10) and cfg.trials == 100 and cfg.seed == 1
        assert all(type(v) is int for v in (*cfg.schedule, cfg.trials, cfg.seed))

    def test_seed_range(self):
        with pytest.raises(ConfigError):
            self.base(seed=-1)
        with pytest.raises(ConfigError):
            self.base(seed=2**64)

    def test_unknown_metric(self):
        with pytest.raises(ConfigError):
            self.base(metrics=("hs-unconstrained", "bogus"))
        with pytest.raises(ConfigError):
            self.base(metrics=())
        with pytest.raises(ConfigError):
            self.base(metrics=("psd-fraction", "psd-fraction"))

    def test_directions_only_for_three_direction(self):
        with pytest.raises(ConfigError):
            self.base(directions=np.eye(3))
        cfg = self.base(scheme="three-direction", directions=np.eye(3))
        assert cfg.directions.shape == (3, 3)
        with pytest.raises(ConfigError, match="3x3"):
            self.base(scheme="three-direction", directions=np.eye(2))

    @pytest.mark.parametrize(
        "directions",
        ["abc", [[1j, 0, 0], [0, 1, 0], [0, 0, 1]], np.eye(3) * (1 + 1j), np.eye(3, dtype=complex)],
        ids=["text", "complex", "complex-array", "complex-dtype"],
    )
    def test_non_numeric_directions_are_a_config_error(self, directions):
        with pytest.raises(ConfigError, match="3x3 matrix of real numbers"):
            self.base(scheme="three-direction", directions=directions)

    def test_qubit_scheme_needs_qubit_state(self):
        with pytest.raises(ConfigError, match="requires a qubit state, got dim 3$"):
            self.base(scheme="standard", state=RandomState(3))

    @pytest.mark.parametrize(
        "state",
        [random_density(3, np.random.default_rng(5)), RandomState(4)],
        ids=["matrix", "random"],
    )
    def test_default_metrics_follow_the_state_dimension(self, state):
        cfg = self.base(state=state, schedule=(5,), trials=3)
        assert cfg.metrics == tuple(m for m in METRICS if m != "fidelity-unconstrained")
        assert set(run_trajectory(cfg).means) == set(cfg.metrics)
        assert self.base(state=RandomState(2)).metrics == METRICS

    def test_fidelity_unconstrained_needs_qubits(self):
        with pytest.raises(ConfigError, match="only defined for qubits"):
            self.base(
                state=RandomState(3),
                metrics=("fidelity-unconstrained",),
            )

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(scheme="standard"), "scheme 'standard' requires a qubit state, got dim 3$"),
            (dict(metrics=("fidelity-unconstrained",)), "only defined for qubits"),
        ],
        ids=["qubit-scheme", "fidelity-unconstrained"],
    )
    def test_dimension_rules_judge_a_matrix_state(self, overrides, message):
        # Not a density matrix either: the dimension rules fire at
        # construction, before resolve_state could judge the matrix.
        with pytest.raises(ConfigError, match=message):
            self.base(state=np.diag([1.2, -0.1, -0.1]), **overrides)

    @pytest.mark.parametrize("metrics", [None, ("det-mean",)], ids=["default", "given"])
    def test_ragged_state_is_a_config_error(self, metrics):
        with pytest.raises(ConfigError, match="ragged"):
            self.base(state=[[1, 0], [0]], metrics=metrics)

    def test_resolve_state_deterministic(self):
        cfg = self.base(state=RandomState(3, FIGURE_SPECTRUM))
        a = cfg.resolve_state()
        b = cfg.resolve_state()
        assert np.array_equal(a, b)
        spectrum = np.sort(np.linalg.eigvalsh(a))
        assert np.abs(spectrum - np.sort(FIGURE_SPECTRUM)).max() < 1e-9

    @pytest.mark.parametrize("dim", [2.5, 2.0, True, 1])
    def test_random_state_dim_must_be_integer_of_at_least_2(self, dim):
        with pytest.raises(ConfigError, match="dim must be an integer"):
            self.base(state=RandomState(dim))

    def test_resolve_state_validates_matrix(self):
        cfg = self.base(state=np.diag([1.4, -0.4]).astype(complex))
        with pytest.raises(InvariantError):
            run_trajectory(cfg)


class TestRunTrajectory:
    def test_record_layout(self):
        cfg = ExperimentConfig(
            state=MIXED_QUBIT,
            scheme="klevel-pairs",
            schedule=(2, 4, 8),
            trials=300,
            seed=11,
        )
        rec = run_trajectory(cfg)
        assert np.array_equal(rec.schedule, [2, 4, 8])
        assert np.array_equal(rec.copies, [6, 12, 24])
        for metric in METRICS:
            assert rec.means[metric].shape == (3,)
            assert np.all(rec.stderrs[metric] >= 0.0)
        assert len(rec.rows()) == len(METRICS) * 3

    def test_copies_per_scheme(self):
        for scheme, expect in [("three-direction", [30, 60]), ("standard", [10, 20]),
                               ("minimal", [10, 20])]:
            sched = (10, 20)
            cfg = ExperimentConfig(
                state=MIXED_QUBIT,
                scheme=scheme,
                schedule=sched,
                trials=50,
                seed=2,
                metrics=("hs-unconstrained",),
            )
            rec = run_trajectory(cfg)
            assert np.array_equal(rec.copies, expect)

    def test_reruns_identical(self):
        cfg = ExperimentConfig(
            state=MIXED_QUBIT,
            scheme="minimal",
            schedule=(20, 40),
            trials=500,
            seed=3,
        )
        r1 = run_trajectory(cfg)
        r2 = run_trajectory(cfg)
        for metric in METRICS:
            assert np.array_equal(r1.means[metric], r2.means[metric])
            assert np.array_equal(r1.stderrs[metric], r2.stderrs[metric])

    @pytest.mark.parametrize(
        "cfg",
        [
            ExperimentConfig(
                state=RandomState(3, FIGURE_SPECTRUM),
                scheme="klevel-pairs",
                schedule=(5, 15),
                trials=CHUNK_TRIALS + 123,
                seed=4,
                metrics=("hs-unconstrained", "hs-constrained", "psd-fraction"),
            ),
            # A 4,096-trial chunk at k = 5 is two row blocks of 2,621 rows.
            ExperimentConfig(
                state=RandomState(5),
                scheme="klevel-pairs",
                schedule=(5, 15),
                trials=CHUNK_TRIALS + 1,
                seed=4,
            ),
            ExperimentConfig(
                state=MIXED_QUBIT,
                scheme="three-direction",
                schedule=(5, 15),
                trials=CHUNK_TRIALS + 123,
                seed=4,
                directions=[[1, 0, 0], [0.6, 0.8, 0], [0, 0.6, 0.8]],
            ),
        ],
        ids=["pairs-k3", "pairs-k5-two-blocks", "three-direction-skew"],
    )
    def test_worker_count_does_not_change_results(self, cfg):
        serial = run_trajectory(cfg, workers=1)
        parallel = run_trajectory(cfg, workers=3)
        for metric in cfg.metrics:
            assert np.array_equal(serial.means[metric], parallel.means[metric])
            assert np.array_equal(serial.stderrs[metric], parallel.stderrs[metric])

    @pytest.mark.parametrize(
        "workers, tasks, cpus, expected",
        [
            (10**9, 7, 64, 7),
            (10**9, 10**6, 64, 64),
            (10**9, 5, None, 1),
            (3, 1, 64, 1),
            (2, 9, 8, 2),
        ],
    )
    def test_pool_size_is_clamped(self, monkeypatch, workers, tasks, cpus, expected):
        monkeypatch.setattr(simulation.os, "cpu_count", lambda: cpus)
        assert simulation._pool_size(workers, tasks) == expected

    def test_single_process_runs_in_process(self, monkeypatch):
        # One chunk: a huge worker request must not reach the pool at all.
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", no_pool)
        cfg = ExperimentConfig(
            state=MIXED_QUBIT, scheme="standard", schedule=(5,), trials=10, seed=1
        )
        record = run_trajectory(cfg, workers=10**9)
        assert np.array_equal(record.means["det-mean"], run_trajectory(cfg).means["det-mean"])

    def test_pool_jobs_carry_the_readout_not_the_projectors(self, monkeypatch):
        # Each pool job pickles the chunk task with the run's read-out,
        # settings' builders, probabilities, state and seed, but never the
        # settings' projectors.
        pickled = {}

        class InlinePool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                pickled["jobs"] = [len(pickle.dumps((fn, job))) for job in jobs]
                return map(fn, jobs)

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(simulation.os, "cpu_count", lambda: 2)
        # The 99 observables' projectors alone pickle to about 480 kB at k = 10.
        for dim, bound in ((2, 50_000), (10, 50_000), (32, 150_000)):
            cfg = ExperimentConfig(
                state=RandomState(dim),
                scheme="klevel-pairs",
                schedule=(5, 9),
                trials=CHUNK_TRIALS + 1,
                seed=3,
                metrics=("hs-unconstrained",),
            )
            pooled = run_trajectory(cfg, workers=2).means["hs-unconstrained"]
            assert np.array_equal(pooled, run_trajectory(cfg).means["hs-unconstrained"])
            assert len(pickled["jobs"]) == 4
            assert max(pickled["jobs"]) < bound

    def test_memory_does_not_grow_with_the_schedule(self):
        # Each point is summarized as its last chunk arrives, so a run holds
        # one point's per-trial values, not every point's.
        def peak(points):
            cfg = ExperimentConfig(
                state=RandomState(3),
                scheme="klevel-pairs",
                schedule=tuple(10 * 2**i for i in range(points)),
                trials=2 * CHUNK_TRIALS,
                seed=5,
            )
            tracemalloc.start()
            try:
                run_trajectory(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # A point holds 8 bytes per trial for each of the five metrics a
        # three-level state gets by default.
        one_point = 2 * CHUNK_TRIALS * 5 * 8
        short = peak(2)
        assert peak(8) - short < one_point

    def test_invalid_worker_count(self):
        cfg = ExperimentConfig(
            state=MIXED_QUBIT, scheme="standard", schedule=(5,), trials=10, seed=1
        )
        for workers in (0, -1, 1.5, 1.0, True):
            with pytest.raises(ConfigError, match="workers must be an integer"):
                run_trajectory(cfg, workers=workers)

    def test_one_trial_has_zero_stderr(self):
        cfg = ExperimentConfig(
            state=MIXED_QUBIT, scheme="minimal", schedule=(5, 10), trials=1, seed=4
        )
        rec = run_trajectory(cfg)
        for metric in METRICS:
            assert np.isfinite(rec.means[metric]).all()
            assert np.array_equal(rec.stderrs[metric], [0.0, 0.0])

    def test_single_shot_pure_state_det_is_exact(self):
        cfg = ExperimentConfig(
            state=bloch_to_matrix([1.0, 0.0, 0.0]),
            scheme="klevel-pairs",
            schedule=(1,),
            trials=200,
            seed=5,
            metrics=("det-mean", "psd-fraction"),
        )
        rec = run_trajectory(cfg)
        assert rec.means["det-mean"][0] == -0.5
        assert rec.stderrs["det-mean"][0] == 0.0
        assert rec.means["psd-fraction"][0] == 0.0

    def test_constrained_never_farther_than_unconstrained(self):
        cfg = ExperimentConfig(
            state=RandomState(3, FIGURE_SPECTRUM),
            scheme="klevel-pairs",
            schedule=(3, 9, 27),
            trials=2000,
            seed=6,
            metrics=("hs-unconstrained", "hs-constrained"),
        )
        rec = run_trajectory(cfg)
        assert np.all(rec.means["hs-constrained"] <= rec.means["hs-unconstrained"] + 1e-12)

    def test_psd_fraction_approaches_one(self):
        cfg = ExperimentConfig(
            state=RandomState(3, FIGURE_SPECTRUM),
            scheme="klevel-pairs",
            schedule=(5, 320),
            trials=2000,
            seed=7,
            metrics=("psd-fraction",),
        )
        rec = run_trajectory(cfg)
        assert rec.means["psd-fraction"][0] < 0.3
        assert rec.means["psd-fraction"][1] == 1.0

    def test_error_decreases_with_copies(self):
        for scheme in ("three-direction", "standard", "minimal"):
            cfg = ExperimentConfig(
                state=MIXED_QUBIT,
                scheme=scheme,
                schedule=(30, 3000),
                trials=2000,
                seed=8,
                metrics=("hs-unconstrained",),
            )
            rec = run_trajectory(cfg)
            assert rec.means["hs-unconstrained"][1] < rec.means["hs-unconstrained"][0] / 3

    def test_fidelity_metrics_bounded_for_mixed_state(self):
        cfg = ExperimentConfig(
            state=MIXED_QUBIT,
            scheme="standard",
            schedule=(200,),
            trials=500,
            seed=9,
            metrics=("fidelity-unconstrained", "fidelity-constrained"),
        )
        rec = run_trajectory(cfg)
        assert 0.9 < rec.means["fidelity-constrained"][0] <= 1.0
        # The unconstrained value may exceed 1 on indefinite samples.
        assert rec.means["fidelity-unconstrained"][0] > 0.9

    def test_three_level_fidelity_constrained(self):
        cfg = ExperimentConfig(
            state=RandomState(3, FIGURE_SPECTRUM),
            scheme="klevel-pairs",
            schedule=(40,),
            trials=400,
            seed=10,
            metrics=("fidelity-constrained",),
        )
        rec = run_trajectory(cfg)
        assert 0.9 < rec.means["fidelity-constrained"][0] <= 1.0


    @pytest.mark.parametrize("dim, shots", [(3, 5), (6, 400)])
    def test_constrained_metric_matches_estimator_per_trial(self, dim, shots):
        # The batched projection in a chunk against the one-matrix estimator,
        # and the metric against the batched projection: bit for bit.
        state = random_density(dim, np.random.default_rng(30 + dim))
        scheme = linear_scheme("klevel-pairs", dim)
        draws = scheme.sample(scheme.probabilities(state), shots, 300, stream_rng(31, dim))
        phi = scheme.to_matrix(draws)
        values = simulation._metric_block(phi, state, ("hs-constrained",))["hs-constrained"]
        projected, projected_steps, psd = constrained_rows(phi)
        constrained = phi.copy()
        constrained[~psd] = projected
        steps = np.zeros(len(phi), dtype=int)
        steps[~psd] = projected_steps
        assert np.array_equal(values, np.linalg.norm(constrained - state, axis=(1, 2)))
        for trial, sigma_row, steps_row in zip(phi, constrained, steps):
            sigma, trial_steps = constrained_estimate(trial)
            assert np.array_equal(sigma, sigma_row)
            assert trial_steps == steps_row
        assert 0 < np.count_nonzero(steps) == len(projected) < len(phi)

    @pytest.mark.parametrize("dim, shots", [(2, 30), (3, 20), (4, 40), (10, 2000)])
    def test_scoring_the_projected_rows_keeps_the_bits(self, monkeypatch, dim, shots):
        # The constrained metrics score PSD rows of phi and the projected
        # rows apart: each value must equal the one the whole constrained
        # stack gives, and eigh must see exactly the rows that are not PSD,
        # less those rebuilt from the k = 3 closed form.
        state = random_density(dim, np.random.default_rng(70 + dim))
        scheme = linear_scheme("klevel-pairs", dim)
        draws = scheme.sample(scheme.probabilities(state), shots, 600, stream_rng(71, dim))
        phi = scheme.to_matrix(draws)
        seen = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(np.array(a)) or eigh(a))
        metrics = ("hs-unconstrained", "hs-constrained", "fidelity-constrained", "psd-fraction")
        values = simulation._metric_block(phi, state, metrics)
        monkeypatch.undo()
        psd = values["psd-fraction"] == 1.0
        assert 0 < psd.sum() < len(phi)
        # fidelity_rows takes the square root of the 2-d true state at k > 2.
        stacks = [a for a in seen if a.ndim == 3]
        assert len(stacks) == 1 and np.array_equal(stacks[0], phi[~psd][eigh_rows(phi, psd)])
        projected, _, _ = constrained_rows(phi)
        constrained = phi.copy()
        constrained[~psd] = projected
        hs = np.linalg.norm(constrained - state, axis=(1, 2))
        assert np.array_equal(values["hs-constrained"], hs)
        assert np.array_equal(values["hs-constrained"][psd], values["hs-unconstrained"][psd])
        assert np.array_equal(values["fidelity-constrained"], fidelity_rows(constrained, state))

    @pytest.mark.parametrize(
        "dim, shots, trials, bound", [(3, 20, CHUNK_TRIALS, 2.2), (10, 10, 655, 4.6)]
    )
    def test_constrained_block_peak(self, dim, shots, trials, bound):
        # constrained_rows copies, solves and rebuilds only the rows that
        # are not PSD: about half of this k = 3 block and all of this k = 10
        # block, a 1 MiB block of the module's budget.  Whole-stack copies
        # peaked at 3.1 and 5.1 times the block's bytes.  At k = 3 the
        # projector rebuild holds no more than eigh did, and the peak is
        # ||phi - rho|| (2.06 times).
        spectrum = FIGURE_SPECTRUM if dim == 3 else None
        state = random_density(dim, np.random.default_rng(1), spectrum)
        scheme = linear_scheme("klevel-pairs", dim)
        draws = scheme.sample(scheme.probabilities(state), shots, trials, stream_rng(1, dim))
        phi = scheme.to_matrix(draws)
        share = psd_rows(phi).mean()
        assert 0.4 < share < 0.6 if dim == 3 else share == 0.0
        metrics = ("hs-constrained",)
        simulation._metric_block(phi, state, metrics)
        tracemalloc.start()
        try:
            simulation._metric_block(phi, state, metrics)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * phi.nbytes

    def test_three_level_rows_rarely_reach_eigh(self, monkeypatch):
        # One full chunk per point of the three_level_error demo at seed 42:
        # about 9,800 projected rows, rebuilt from the k = 3 closed form but
        # for at most a handful with a near double root.
        obj = json.loads((CONFIGS / "three_level_error.json").read_text())
        cfg = ExperimentConfig(
            state=RandomState(3, tuple(obj["state"]["random"]["eigenvalues"])),
            scheme=obj["scheme"],
            schedule=tuple(obj["schedule"]),
            trials=CHUNK_TRIALS,
            seed=42,
            metrics=tuple(obj["metrics"]),
        )
        seen = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(len(a)) or eigh(a))
        record = run_trajectory(cfg)
        monkeypatch.undo()
        projected = CHUNK_TRIALS * (1.0 - record.means["psd-fraction"]).sum()
        assert len(seen) == len(cfg.schedule) and projected > 9000
        assert sum(seen) <= 5

    @pytest.mark.parametrize("metrics", [("psd-fraction",), ("hs-constrained", "psd-fraction")])
    def test_psd_fraction_counts_the_unprojected_trials(self, metrics):
        # The first chunk of the qubit_minimal_povm demo at n = 30, seed 42:
        # 62 of its trials have a smallest eigenvalue in [-1e-9, 0), rounding
        # noise on rank-one estimates.  They count as PSD, so they must not
        # be projected, whichever metrics the chunk computes.
        state = bloch_to_matrix([0.3, 0.4, 0.5])
        scheme = linear_scheme("minimal")
        rng = stream_rng(42, simulation._NS_SAMPLE, 0, 0)
        phi = scheme.to_matrix(scheme.sample(scheme.probabilities(state), 30, CHUNK_TRIALS, rng))
        psd = simulation._metric_block(phi, state, metrics)["psd-fraction"]
        _, steps, unprojected = constrained_rows(phi)
        smallest = np.linalg.eigh(phi)[0][:, 0]
        assert np.count_nonzero((smallest < 0.0) & (smallest >= -1e-9)) == 62
        assert np.array_equal(psd == 1.0, unprojected)
        assert len(steps) == np.count_nonzero(psd == 0.0) and (steps >= 1).all()


class TestEigenStage:
    """Each chunk solves only the eigenproblem its metrics read."""

    PSD_ONLY = ("hs-unconstrained", "psd-fraction", "det-mean")

    @staticmethod
    def count_chunk_eigensolves(monkeypatch):
        # Only calls made while a chunk runs count: the outcome distributions
        # are computed once per run, validating the true state once.  "rows"
        # tallies the matrices each solver was handed.
        calls = {"chunks": 0, "eigh": 0, "eigvalsh": 0}
        rows = {"eigh": 0, "eigvalsh": 0}
        in_chunk = [False]
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(a, *args, _name=name, _original=original, **kwargs):
                calls[_name] += in_chunk[0]
                rows[_name] += in_chunk[0] * len(a)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        chunk_task = simulation._chunk_task

        def counted_chunk(*args):
            calls["chunks"] += 1
            in_chunk[0] = True
            try:
                return chunk_task(*args)
            finally:
                in_chunk[0] = False

        monkeypatch.setattr(simulation, "_chunk_task", counted_chunk)
        return calls, rows

    @pytest.mark.parametrize("dim", [2, 3, 10])
    @pytest.mark.parametrize("metrics", [PSD_ONLY, ("det-mean",)], ids=["psd", "det"])
    def test_chunks_solve_only_what_their_metrics_read(self, monkeypatch, dim, metrics):
        cfg = ExperimentConfig(
            state=RandomState(dim),
            scheme="klevel-pairs",
            schedule=(10, 100),
            trials=CHUNK_TRIALS + 4,
            seed=42,
            metrics=metrics,
        )
        calls, rows = self.count_chunk_eigensolves(monkeypatch)
        run_trajectory(cfg)
        chunks = 2 * len(cfg.schedule)
        # Each chunk is scored in row blocks, each solving its own eigenproblem.
        block = max(1, simulation._BLOCK_BYTES // (16 * dim * dim))
        blocks = len(cfg.schedule) * sum(-(-m // block) for m in (CHUNK_TRIALS, 4))
        eigvalsh = blocks if "psd-fraction" in metrics else 0
        assert calls == {"chunks": chunks, "eigh": 0, "eigvalsh": eigvalsh}
        trial_points = cfg.trials * len(cfg.schedule)
        if eigvalsh:
            # psd_screen keeps the rows far from the PSD edge from LAPACK.
            assert rows["eigvalsh"] < trial_points / 2

    def test_psd_only_block_of_one_level_rows(self):
        # psd_screen clears one-level rows too: [[1]] has the pivot 1.
        values = simulation._metric_block(np.ones((4, 1, 1)), np.ones((1, 1)), self.PSD_ONLY)
        assert values["psd-fraction"].tolist() == [1.0] * 4

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_nan_row_raises_on_both_branches(self, dim):
        # LAPACK returns NaN eigenvalues for an all-NaN row at k = 1 and 2
        # and does not converge on it at k = 3 and 4; both branches raise
        # the same error either way.
        phi = np.stack([np.eye(dim, dtype=complex) / dim] * 2)
        phi[1] = np.nan
        for metrics in (self.PSD_ONLY, ("hs-constrained", "psd-fraction")):
            with pytest.raises(EigenDecompositionError, match="did not converge"):
                simulation._metric_block(phi, phi[0], metrics)

    @pytest.mark.parametrize("dim", [2, 3, 10])
    def test_eigen_paths_leave_the_stack_unchanged(self, dim):
        # Half the rows indefinite; psd_screen's closed form only reads the
        # caller's stack, its Cholesky sweep works on a copy, and
        # constrained_rows rebuilds the projected rows in arrays of its own:
        # neither path may write through.
        rng = np.random.default_rng(dim)
        phi = np.stack([random_density(dim, rng) for _ in range(8)])
        phi[::2] += np.diag(np.r_[-1.0, 1.0, np.zeros(dim - 2)])
        before = phi.copy()
        _, steps, psd = constrained_rows(phi)
        assert psd.tolist() == [False, True] * 4 and len(steps) == 4 and steps.all()
        assert np.array_equal(phi, before)
        for metrics in (self.PSD_ONLY, ("hs-constrained", "psd-fraction")):
            values = simulation._metric_block(phi, phi[1], metrics)
            assert values["psd-fraction"].tolist() == [0.0, 1.0] * 4
            assert np.array_equal(phi, before)

    @pytest.mark.parametrize("seed", [42, 7])
    def test_both_branches_decide_psd_alike(self, seed):
        # Both branches read linalg.psd_rows's mask, the psd-only one
        # directly and the other through constrained_rows: the same sampled
        # trials must count as PSD with and without a constrained metric.
        obj = json.loads((CONFIGS / "three_level_error.json").read_text())
        spec = obj["state"]["random"]
        kwargs = dict(
            state=RandomState(spec["dim"], tuple(spec["eigenvalues"])),
            scheme=obj["scheme"],
            schedule=tuple(obj["schedule"]),
            trials=CHUNK_TRIALS + 4,
            seed=seed,
        )
        assert "hs-constrained" in obj["metrics"]
        both = run_trajectory(ExperimentConfig(metrics=tuple(obj["metrics"]), **kwargs))
        alone = run_trajectory(ExperimentConfig(metrics=("psd-fraction",), **kwargs))
        assert 0.0 < both.means["psd-fraction"][0] < 1.0
        assert np.array_equal(alone.means["psd-fraction"], both.means["psd-fraction"])


class TestRowBlocks:
    """A chunk scored in row blocks gives the bits of the chunk scored whole."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 6, 10])
    @pytest.mark.parametrize(
        "metrics",
        [
            TestEigenStage.PSD_ONLY,
            ("hs-constrained", "fidelity-constrained", "psd-fraction"),
            ("det-mean",),
            ("hs-unconstrained",),
        ],
        ids=["psd", "constrained", "det", "hs"],
    )
    # The module's budget leaves a chunk whole at small k and ends it in a
    # ragged block at k = 6 and 10; 1,000-row blocks cut every k, with a
    # ragged last block of 96 rows.
    @pytest.mark.parametrize("rows", [None, 1000], ids=["budget", "1000-rows"])
    def test_blocks_keep_the_bits(self, monkeypatch, dim, metrics, rows):
        if rows is not None:
            monkeypatch.setattr(simulation, "_BLOCK_BYTES", rows * 16 * dim * dim)
        state = random_density(dim, np.random.default_rng(40 + dim))
        scheme = linear_scheme("klevel-pairs", dim)
        probs = scheme.probabilities(state)
        run = (scheme, probs, state, metrics, 43)
        blocked = simulation._chunk_task(run, (0, 30, 1, CHUNK_TRIALS))
        rng = stream_rng(43, simulation._NS_SAMPLE, 0, 1)
        phi = scheme.to_matrix(scheme.sample(probs, 30, CHUNK_TRIALS, rng))
        whole = simulation._metric_block(phi, state, metrics)
        assert list(blocked) == list(metrics)
        for metric in metrics:
            assert np.array_equal(blocked[metric], whole[metric])


class TestDecayRate:
    def test_requires_invertible_state(self):
        with pytest.raises(InvariantError):
            indefinite_decay_rate(bloch_to_matrix([1.0, 0.0, 0.0]), (5, 10), 100, 0)

    def test_slope_negative_with_good_fit(self):
        rho = random_density(3, np.random.default_rng(20), FIGURE_SPECTRUM)
        fit = indefinite_decay_rate(rho, (5, 10, 20, 40, 80), trials=5000, seed=42)
        assert fit.slope < 0
        assert fit.r_squared >= 0.9
        assert not fit.incomplete
        assert fit.points_used == 5

    def test_all_psd_gives_incomplete_fit(self):
        fit = indefinite_decay_rate(MIXED_QUBIT, (400, 500), trials=50, seed=1)
        assert fit.incomplete
        assert np.isnan(fit.slope)
        assert fit.points_used == 0

    @pytest.mark.parametrize("schedule", [(5,), (5, 320, 640)], ids=["one-of-one", "one-of-three"])
    def test_one_usable_point_gives_incomplete_fit(self, schedule):
        rho = random_density(3, np.random.default_rng(22), FIGURE_SPECTRUM)
        fit = indefinite_decay_rate(rho, schedule, trials=1000, seed=5)
        assert fit.points_used == 1
        assert fit.incomplete
        assert np.isnan([fit.slope, fit.intercept, fit.r_squared]).all()

    def test_schedule_judged_by_the_config(self):
        rho = random_density(3, np.random.default_rng(22), FIGURE_SPECTRUM)
        with pytest.raises(ConfigError, match="schedule must be a sequence"):
            indefinite_decay_rate(rho, 5, trials=100, seed=0)

    def test_fraction_matches_trajectory(self):
        rho = random_density(3, np.random.default_rng(21), FIGURE_SPECTRUM)
        fit = indefinite_decay_rate(rho, (5, 20), trials=1000, seed=3)
        cfg = ExperimentConfig(
            state=rho,
            scheme="klevel-pairs",
            schedule=(5, 20),
            trials=1000,
            seed=3,
            metrics=("psd-fraction",),
        )
        rec = run_trajectory(cfg)
        assert np.array_equal(fit.not_psd_fraction, 1.0 - rec.means["psd-fraction"])


class TestPureStateDetMean:
    def test_single_shot_exact(self):
        mean, stderr = pure_state_det_mean(1, trials=500, seed=0)
        assert mean == -0.5
        assert stderr == 0.0

    def test_mean_tracks_inverse_repetitions(self):
        for r in (4, 10):
            mean, stderr = pure_state_det_mean(r, trials=30000, seed=13)
            assert stderr > 0
            assert abs(mean - (-1 / (2 * r))) < 5 * stderr

    def test_reproducible(self):
        assert pure_state_det_mean(6, 2000, 7) == pure_state_det_mean(6, 2000, 7)

    def test_repetitions_not_truncated(self):
        with pytest.raises(ConfigError, match="integers"):
            pure_state_det_mean(6.5, 2000, 7)


def test_distance_metrics_consistent_with_direct_computation():
    # One trajectory point recomputed by hand through the public estimators.
    rho = MIXED_QUBIT
    plan = MeasurementPlan(2, 25)
    values = []
    for trial in range(300):
        counts = sample_plan_counts(plan, rho, stream_rng(99, trial))
        phi = unconstrained_estimate(plan, counts)
        sigma, _ = constrained_estimate(phi)
        values.append(hs_distance(sigma, rho))
    cfg = ExperimentConfig(
        state=rho,
        scheme="klevel-pairs",
        schedule=(25,),
        trials=300,
        seed=99,
        metrics=("hs-constrained",),
    )
    rec = run_trajectory(cfg)
    # Different stream layout, same law: means agree at Monte Carlo scale.
    direct = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / np.sqrt(len(values)))
    assert abs(rec.means["hs-constrained"][0] - direct) < 6 * stderr
