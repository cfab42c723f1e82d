"""Names, units and kinds of every metric the benchmark reports.

Kept apart from ``tracer.py`` so that run.py can read them without
importing the program.
"""

# Rep times are reported at the machine speed at which one sample of
# worker.SpeedProbe takes this long, so that the machine's own speed swings
# cancel out of the comparison between runs.
PROBE_NOMINAL_S = 0.0005
SETUP_PROBE_NOMINAL_S = 0.0005

# name -> unit
END_TO_END = {"setup_s": "s", "run_s": "s", "simulate_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics of a traced run, name -> (unit, kind). "time" metrics
# are medians over traced reps; "count" and "max" metrics are deterministic
# and must repeat exactly.
LAYER_METRICS = {
    "core.rhs_calls": ("count", "count"),
    "core.rhs_s": ("s", "time"),
    "core.partials_calls": ("count", "count"),
    "core.partials_s": ("s", "time"),
    "core.fd_calls": ("count", "count"),
    "core.fd_s": ("s", "time"),
    "core.energy_calls": ("count", "count"),
    "core.energy_s": ("s", "time"),
    "core.states_built": ("count", "count"),
    "integrate.steps": ("count", "count"),
    "integrate.rejected_steps": ("count", "count"),
    "integrate.step_self_s": ("s", "time"),
    "integrate.scan_s": ("s", "time"),
    "integrate.locate_calls": ("count", "count"),
    "integrate.locate_s": ("s", "time"),
    "integrate.surface_evals": ("count", "count"),
    "integrate.dense_evals": ("count", "count"),
    "impact.resolves": ("count", "count"),
    "impact.resolve_s": ("s", "time"),
    "impact.partials_calls": ("count", "count"),
    "impact.max_residual": ("ratio", "max"),
    "hybrid.flow_phases": ("count", "count"),
    "hybrid.dense_segments": ("count", "count"),
    "hybrid.loop_self_s": ("s", "time"),
    "hybrid.sample_s": ("s", "time"),
    "hybrid.sample_rows": ("count", "count"),
    "checks.energy_s": ("s", "time"),
    "checks.dissipated_s": ("s", "time"),
    "checks.impact_s": ("s", "time"),
    "checks.node_evals": ("count", "count"),
    "checks.worst_ratio": ("ratio", "max"),
    "cli.parse_s": ("s", "time"),
    "cli.self_s": ("s", "time"),
    "cli.check_cmd_s": ("s", "time"),
    "io.csv_write_s": ("s", "time"),
    "io.csv_bytes": ("bytes", "count"),
    "io.csv_read_s": ("s", "time"),
    "io.json_write_s": ("s", "time"),
    "io.json_bytes": ("bytes", "count"),
    "io.svg_write_s": ("s", "time"),
    "io.svg_bytes": ("bytes", "count"),
}



# traced minus untraced median rep time, reported with the per-layer metrics
OVERHEAD = "trace.overhead_s"
