"""Symbolic cost models, the E21 claims and the chunk-size knobs.

Covers the closed forms in ``analysis/symbolic_cost.py`` (predictions
must match ``measure_cost`` exactly, with and without sympy), the E21
claim family that pins that agreement, and the ``REPRO_CHUNK_SIZE``
knob.
"""

import os

import pytest

from repro.analysis.complexity import measure_cost
from repro.analysis.symbolic_cost import (
    HAVE_SYMPY,
    SYMBOLS,
    PredictedCost,
    covered,
    covered_families,
    evaluate,
    gk_reveal_rounds_symbolic,
    model_for,
    symbolic,
)
from repro.functions import make_and, make_concat, make_swap
from repro.gmw import ThresholdGmwProtocol
from repro.protocols import (
    DummyProtocol,
    GordonKatzProtocol,
    Opt2SfeProtocol,
    OptNSfeProtocol,
    SingleRoundProtocol,
)
from repro.protocols.gradual_release import RELEASE_BITS, GradualReleaseProtocol
from repro.runtime import (
    ENV_CHUNK_SIZE,
    SerialRunner,
    resolve_chunk_size,
)


def _zoo():
    """Every protocol family the cost models cover, as concrete instances."""
    return [
        GordonKatzProtocol(make_and(), p=2),
        GordonKatzProtocol(make_and(), p=4),
        SingleRoundProtocol(make_and()),
        GradualReleaseProtocol(make_and()),
        Opt2SfeProtocol(make_swap(16)),
        OptNSfeProtocol(make_concat(5, 8)),
        ThresholdGmwProtocol(make_concat(5, 8)),
    ]


# -- the closed forms --------------------------------------------------------


class TestSymbolicModels:
    def test_predictions_match_measured_costs_exactly(self):
        # The E21 contract, claim by claim: zero divergence on every
        # component for every covered family.
        for protocol in _zoo():
            predicted = evaluate(protocol)
            measured = measure_cost(
                protocol, n_runs=3, seed=("cost-test", protocol.name)
            )
            assert predicted.rounds == measured.rounds
            assert (
                predicted.point_to_point_messages
                == measured.point_to_point_messages
            )
            assert predicted.broadcasts == measured.broadcasts
            assert (
                predicted.functionality_responses
                == measured.functionality_responses
            )

    def test_known_closed_forms(self):
        gk = evaluate(GordonKatzProtocol(make_and(), p=2))
        R = GordonKatzProtocol(make_and(), p=2).reveal_rounds
        assert (gk.rounds, gk.point_to_point_messages) == (R + 2, 2 * R)
        gr = evaluate(GradualReleaseProtocol(make_and()))
        assert gr.rounds == RELEASE_BITS + 3
        assert gr.point_to_point_messages == 2 * RELEASE_BITS + 2
        nsfe = evaluate(OptNSfeProtocol(make_concat(5, 8)))
        assert (nsfe.broadcasts, nsfe.functionality_responses) == (5, 5)

    def test_weight_is_rounds_plus_traffic(self):
        cost = PredictedCost("x", 4, 2, 0, 2)
        assert cost.total_messages == 4
        assert cost.weight == 8.0

    def test_sympy_and_fallback_paths_agree(self, monkeypatch):
        if not HAVE_SYMPY:
            pytest.skip("sympy unavailable; only the fallback path exists")
        import repro.analysis.symbolic_cost as sc

        with_sympy = [evaluate(p) for p in _zoo()]
        monkeypatch.setattr(sc, "HAVE_SYMPY", False)
        without = [sc.evaluate(p) for p in _zoo()]
        assert with_sympy == without

    @pytest.mark.skipif(not HAVE_SYMPY, reason="needs sympy")
    def test_symbolic_expressions_substitute(self):
        import sympy

        model = model_for(GordonKatzProtocol(make_and(), p=2))
        exprs = symbolic(model)
        R = sympy.Symbol("R", positive=True, integer=True)
        assert exprs["rounds"] == R + 2
        assert exprs["point_to_point_messages"] == 2 * R
        assert int(exprs["rounds"].subs({R: 80})) == 82
        # The round parameter's own closed form (Theorems 23/24 shapes).
        p = sympy.Symbol("p", positive=True, integer=True)
        m = sympy.Symbol("m", positive=True, integer=True)
        assert gk_reveal_rounds_symbolic("domain") == 20 * p * m
        assert gk_reveal_rounds_symbolic("range") == 20 * p ** 2 * m
        with pytest.raises(ValueError):
            gk_reveal_rounds_symbolic("bogus")

    def test_every_model_param_is_in_the_glossary(self):
        for protocol in _zoo():
            for param in model_for(protocol).params:
                assert param in SYMBOLS

    def test_uncovered_protocol_raises_with_coverage_list(self):
        dummy = DummyProtocol(make_swap(8))
        assert not covered(dummy)
        assert model_for(dummy) is None
        with pytest.raises(ValueError, match="covered families"):
            evaluate(dummy)
        assert "GordonKatzProtocol" in covered_families()

    def test_subclasses_inherit_their_family_model(self):
        class TunedSingleRound(SingleRoundProtocol):
            pass

        tuned = TunedSingleRound(make_and())
        assert model_for(tuned) is model_for(SingleRoundProtocol(make_and()))
        assert evaluate(tuned).rounds == 3


# -- env knobs ---------------------------------------------------------------


class TestScheduleKnobs:
    def test_chunk_size_env_mirrors_flag(self, monkeypatch):
        monkeypatch.setenv(ENV_CHUNK_SIZE, "25")
        assert resolve_chunk_size() == 25
        assert resolve_chunk_size(10) == 10
        monkeypatch.delenv(ENV_CHUNK_SIZE)
        assert resolve_chunk_size() is None

    @pytest.mark.parametrize("bad", ["0", "-3", "ten", "2.5", "1e3"])
    def test_env_chunk_size_validation_names_the_variable(
        self, monkeypatch, bad
    ):
        monkeypatch.setenv(ENV_CHUNK_SIZE, bad)
        with pytest.raises(ValueError, match="REPRO_CHUNK_SIZE"):
            resolve_chunk_size()

    def test_explicit_chunk_size_validation(self):
        with pytest.raises(ValueError, match="positive"):
            resolve_chunk_size(0)

    def test_runner_reads_env_knobs(self, monkeypatch):
        monkeypatch.setenv(ENV_CHUNK_SIZE, "17")
        runner = SerialRunner()
        assert runner.chunk_size == 17


# -- E21 claims --------------------------------------------------------------


class TestE21Claims:
    def test_registered_for_every_covered_family(self):
        from repro.verify import default_registry

        registry = default_registry()
        ids = {c.claim_id for c in registry.select("E21")}
        assert ids == {
            "E21-opt2sfe", "E21-single", "E21-gradual",
            "E21-gk", "E21-nsfe", "E21-gmw",
        }

    def test_all_pass_exactly_and_replay(self):
        from repro.analysis import deterministic_payload, report_to_dict
        from repro.verify import verify_claims

        report = verify_claims("E21", budget="small", seed="e21-test")
        assert report.exit_code == 0
        for check in report.checks:
            assert check.measurement.value == 0.0
            assert check.tolerance == 0.0
        replay = verify_claims("E21", budget="small", seed="e21-test")
        assert deterministic_payload(
            report_to_dict(report)
        ) == deterministic_payload(report_to_dict(replay))
