"""Plot-ready text outputs: comma-separated traces and key-value summaries.

Numbers are written with ``repr`` so every value round-trips exactly and
repeated runs of a deterministic scenario produce byte-identical files.
"""

from __future__ import annotations

from .errors import ConfigurationError
from .sim import SummaryMetrics, Trace


def trace_header(num_nodes: int) -> str:
    cols = ["n", "t", "u_ext", "y", "x"]
    for i in range(1, num_nodes + 1):
        cols += [f"u{i}", f"uhat{i}", f"alpha{i}", f"D{i}"]
    cols += ["E_obs", "E_hat"]
    return ",".join(cols)


def write_trace(trace: Trace, path, decimation: int = 1) -> None:
    if not trace.records:
        raise ConfigurationError("refusing to write an empty trace")
    if decimation < 1:
        raise ConfigurationError("decimation must be >= 1")
    lines = [trace_header(trace.num_nodes)]
    for n, t, u_ext, y, x, us, u_hats, alphas, ds, e_obs, e_hat in trace.records:
        if n % decimation != 0:
            continue
        cells = [str(n), repr(t), repr(u_ext), repr(y), repr(x)]
        for u, u_hat, alpha, d in zip(us, u_hats, alphas, ds):
            cells += [repr(u), repr(u_hat), repr(alpha), repr(d)]
        cells += [repr(e_obs), repr(e_hat)]
        lines.append(",".join(cells))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary(metrics: SummaryMetrics, path) -> None:
    lines = [
        f"diverged={'true' if metrics.diverged else 'false'}",
        f"min_E_hat={metrics.min_e_hat!r}",
        f"final_abs_y={metrics.final_abs_y!r}",
    ]
    for i, d in enumerate(metrics.dissipated, start=1):
        lines.append(f"D{i}={d!r}")
    for i, s in enumerate(metrics.shares, start=1):
        lines.append(f"share{i}={s!r}")
    lines.append(f"total_injected_energy={metrics.total_injected!r}")
    lines.append(f"steps={metrics.steps}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_summary(path) -> dict:
    """Parse a summary file back into {key: str} (values stay unconverted)."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                key, _, value = line.partition("=")
                out[key] = value
    return out
