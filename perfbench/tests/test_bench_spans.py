"""Self-time arithmetic and the tracing wrappers."""

import numpy as np
import pytest

from spans import Instrumentation, Span, Tracer, layer_summary, self_times


def span(id, parent, layer, name, start, end, error=None, **attrs):
    return Span(id, parent, 0, layer, name, start, end, error, attrs)


def fft(id, parent, start, end, n=8):
    return span(id, parent, "fft", "fft2", start, end, points=n * n,
                flops=5.0 * n * n * np.log2(n * n), bytes_in=16 * n * n,
                bytes_out=16 * n * n)


class TestSelfTimes:
    def test_children_are_subtracted_once(self):
        spans = [span(0, None, "cli", "main", 0.0, 10.0),
                 span(1, 0, "propagation", "propagate_definite_l", 1.0, 7.0),
                 fft(2, 1, 2.0, 3.0), fft(3, 1, 4.0, 6.5),
                 span(4, 0, "analysis", "effective_width", 8.0, 9.0)]
        selfs = self_times(spans)
        assert selfs == pytest.approx({0: 3.0, 1: 2.5, 2: 1.0, 3: 2.5, 4: 1.0})
        # self times of all spans add up to the root durations
        assert sum(selfs.values()) == pytest.approx(10.0)

    def test_grandchildren_count_only_against_their_parent(self):
        spans = [span(0, None, "cli", "main", 0.0, 4.0),
                 span(1, 0, "gratings", "locate_minimum_width_plane", 0.0, 4.0),
                 span(2, 1, "propagation", "propagate_definite_l", 1.0, 3.0),
                 fft(3, 2, 1.5, 2.5)]
        assert self_times(spans) == pytest.approx({0: 0.0, 1: 2.0, 2: 1.0,
                                                   3: 1.0})

    def test_layer_summary(self):
        spans = [span(0, None, "cli", "main", 0.0, 10.0),
                 span(1, 0, "propagation", "make_plan", 0.0, 1.0),
                 span(2, 0, "propagation", "propagate_superposition", 1.0, 6.0,
                      steps=8, planes=1),
                 # nested stepping spans must not count their steps again
                 span(3, 2, "propagation", "superposition_evolution", 1.0, 5.0,
                      steps=8, planes=1),
                 fft(4, 3, 2.0, 4.0),
                 span(5, 0, "propagation", "propagate_definite_l", 6.0, 7.0,
                      steps=4, planes=1),
                 span(6, 0, "analysis", "pattern_orientation", 7.0, 8.0,
                      error="NoPatternError"),
                 span(7, 0, "gratings", "extract_order", 8.0, 9.0,
                      error="OrderSeparationError"),
                 span(8, 7, "gratings", "diffract_far_field", 8.0, 8.5,
                      error="OrderSeparationError")]
        out = layer_summary(spans)
        assert out["propagation.steps"] == 12
        assert out["propagation.steps_per_plane"] == 6.0
        assert out["propagation.plans"] == 1
        assert out["propagation.plan_s"] == pytest.approx(1.0)
        assert out["propagation.calls"] == 4
        assert out["propagation.self_s"] == pytest.approx(1 + 1 + 2 + 1)
        assert out["fft.calls"] == 1
        assert out["fft.busy_s"] == pytest.approx(2.0)
        assert out["fft.points"] == 64
        assert out["fft.gflops"] == pytest.approx(
            5 * 64 * 6 / 2.0 / 1e9)
        assert out["analysis.errors"] == 1
        assert out["gratings.errors"] == 1     # counted where it was raised
        assert out["cli.self_s"] == pytest.approx(1.0)
        assert out["traced_accounted_s"] == pytest.approx(10.0)


class TestInstrumentation:
    def test_install_traces_and_uninstall_restores(self):
        import evfaraday.cli as cli
        from evfaraday import gratings, modes, propagation
        from evfaraday.core import BeamParameters, ELEMENTARY_CHARGE

        originals = (cli.propagate_definite_l, gratings.make_plan,
                     propagation.make_plan)
        tracer = Tracer()
        p = BeamParameters(60e3 * ELEMENTARY_CHARGE, 1.0)
        grid = modes.GridSpec(64, 8e-7)
        with Instrumentation(tracer):
            assert cli.propagate_definite_l is not originals[0]
            assert gratings.make_plan is propagation.make_plan
            root = tracer.open("cli", "main")
            dz = propagation.default_step_size(grid, p)
            plan = propagation.make_plan(grid, p, dz)
            field = modes.mode_field(grid, 0, 0, 1e-7)
            propagation.propagate_definite_l(field, 0, plan, 3)
            tracer.close(root)
        assert (cli.propagate_definite_l, gratings.make_plan,
                propagation.make_plan) == originals

        spans = tracer.take()
        out = layer_summary(spans)
        assert out["propagation.steps"] == 3
        assert out["propagation.plans"] == 1
        # mode_field and the public helpers it calls through its module
        assert [s.name for s in spans if s.layer == "modes"][0] == "mode_field"
        assert out["modes.calls"] > 1
        # one opening round trip plus one per step
        assert out["fft.calls"] == 2 * (3 + 1)
        assert out["fft.points"] == 8 * 64 * 64
        step = [s for s in spans if s.name == "propagate_definite_l"][0]
        assert all(s.parent == step.id for s in spans if s.layer == "fft")
        assert sum(self_times(spans).values()) == pytest.approx(root.duration)

    def test_generator_gets_one_span_per_plane(self):
        from evfaraday import propagation
        from evfaraday.core import BeamParameters, ELEMENTARY_CHARGE
        from evfaraday.modes import GridSpec, ModeSuperposition

        p = BeamParameters(60e3 * ELEMENTARY_CHARGE, 1.0)
        grid = GridSpec(64, 8e-7)
        s = ModeSuperposition.opposite_pair(1, 1e-7, p)
        tracer = Tracer()
        with Instrumentation(tracer):
            dz = propagation.default_step_size(grid, p)
            plan = propagation.make_plan(grid, p, dz, steps_per_output=2)
            planes = list(propagation.superposition_evolution(s, grid, plan, 3))
        assert len(planes) == 4
        spans = tracer.take()
        evolution = [s for s in spans if s.name == "superposition_evolution"]
        assert len(evolution) == 4
        out = layer_summary(spans)
        assert out["propagation.steps"] == 6
        assert out["propagation.steps_per_plane"] == 2.0
