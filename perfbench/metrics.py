"""Per-layer metrics of one traced repetition, reduced from its spans.

Conventions: ``*_calls`` counts every call; ``*_s`` is the inclusive time of
the outermost calls of that group, so a call nested in another call of the
same group is not counted twice; ``*_self_s`` subtracts the time of traced
children.  A layer a workload does not exercise reads 0.  Span times include
the tracer's own overhead, which ``trace_overhead_s`` reports.
"""

import numpy as np

from spans import FFT_BYTES_PER_POINT, WRITE_OPEN
from workloads import CHECK_IDS

DRIFT = ("b", "g", "g_eps", "g_eps_transport")
NOISE = ("h_k", "h_eps_k")
NORM = ("x_norm", "z_norm", "v_norm", "max_velocity", "x_inner", "z_inner")

RATIOS = ("cancellation_terms", "kato_ponce_ratio", "helmholtz_commutator_ratio",
          "growth_ratios", "difference_ratio", "log_interpolation_ratio")


def _ops_method(group):
    def match(name):
        parts = name.split(".")
        return (len(parts) == 3 and parts[0] == "models"
                and parts[1].endswith("Ops") and parts[2] in group)
    return match


def tail_percentile(n):
    """Highest whole percentile with at least ten samples beyond it (>= 50)."""
    return max(50, int(100 * (n - 10) // n)) if n else 50


def layer_metrics(t, out_bytes):
    """dict of per-layer metric -> value for one repetition's SpanTable."""
    m = {}
    fft = t.mask(lambda n: n.startswith("numpy.fft."))
    m["spectral.fft_calls"] = t.count(fft)
    m["spectral.fft_points"] = int(np.sum(t.points[fft]))
    m["spectral.fft_bytes_computed"] = FFT_BYTES_PER_POINT * m["spectral.fft_points"]
    m["spectral.fft_s"] = t.total(fft)
    product = t.named("spectral.dealiased_product", "spectral.product_with_values")
    m["spectral.product_calls"] = t.count(product)
    m["spectral.product_s"] = t.total(t.outermost(product))

    lie = t.named("lie.lie_derivative")
    m["lie.lie_derivative_calls"] = t.count(lie)
    m["lie.lie_derivative_s"] = t.total(t.outermost(lie))
    m["lie.lie_derivative_self_s"] = float(np.sum(t.self_time[lie]))

    norm = t.mask(_ops_method(NORM))
    for key, group in (("drift", t.mask(_ops_method(DRIFT))),
                       ("noise", t.mask(_ops_method(NOISE))), ("norm", norm)):
        m["models.%s_calls" % key] = t.count(group)
        m["models.%s_s" % key] = t.total(t.outermost(group))
    state = t.named("models.ModelState.__init__")
    m["models.state_new"] = t.count(state)
    m["models.state_s"] = t.total(state)

    sample = t.named("noise.sample_path")
    basis = t.named("noise.build_basis_1d", "noise.build_basis_sqg",
                    "noise.constant_basis_1d")
    m["noise.sample_path_calls"] = t.count(sample)
    m["noise.sample_path_s"] = t.total(t.outermost(sample))
    m["noise.basis_s"] = t.total(t.outermost(basis))

    run_path = t.named("solver.run_path")
    under_run_path = t.parent_in(run_path)
    step = t.named("solver.step_ito_em", "solver.step_strat_heun")
    monitor = norm & under_run_path
    steps = t.count(step)
    m["solver.steps"] = steps
    m["solver.step_s"] = float(np.median(t.dur[step])) if steps else 0.0
    loop_ffts = t.count(fft & (t.ancestor_in(step) | t.ancestor_in(monitor)))
    m["solver.fft_per_step"] = loop_ffts / steps if steps else 0.0
    members = t.dur[run_path]
    m["solver.run_path_calls"] = len(members)
    m["solver.member_s"] = float(np.median(members)) if len(members) else 0.0
    m["solver.member_tail_s"] = (float(np.percentile(members, tail_percentile(len(members))))
                                 if len(members) else 0.0)
    m["solver.monitor_s"] = t.total(monitor)
    setup = under_run_path & (basis | sample | t.named("models.make_ops",
                                                       "models.make_initial_state"))
    m["solver.setup_s"] = t.total(setup)
    reasons = t.results.get("solver.run_path", [])
    m["solver.members_end_frac"] = (reasons.count("end") / len(members)
                                    if len(members) else 0.0)

    for cid in CHECK_IDS:
        m["estimates.check_s." + cid] = t.total(t.named("estimates.check." + cid))
    m["estimates.ratio_evals"] = t.count(t.named(*("estimates." + r for r in RATIOS)))
    corpus = t.named("estimates.corpus_banks", "estimates.corpus_field",
                     "estimates.corpus_state")
    m["estimates.corpus_s"] = t.total(t.outermost(corpus))

    write = t.named("cli.write_manifest", "solver.write_trajectory",
                    "solver.write_state_snapshot", WRITE_OPEN)
    m["cli.write_s"] = t.total(t.outermost(write))
    m["cli.out_bytes"] = out_bytes
    return m
