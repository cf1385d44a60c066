"""Plot-ready text outputs: comma-separated traces and key-value summaries.

Numbers are written with ``repr`` so every value round-trips exactly and
repeated runs of a deterministic scenario produce byte-identical files.
"""

from __future__ import annotations

from .errors import ConfigurationError, check_count
from .sim import SummaryMetrics, Trace

# Trace values formatted per write: the writer's memory is bounded by this,
# not by the length of the trace.
CHUNK_VALUES = 1 << 12


def trace_header(num_nodes: int) -> str:
    return ",".join(["n", *Trace(num_nodes=num_nodes).columns])


def write_trace(trace: Trace, path, decimation: int = 1) -> None:
    """Write every ``decimation``-th row of ``trace`` as CSV, a chunk of rows at a time.

    Each chunk is formatted a column at a time; a column of one repeated value is formatted
    once, and one whose bytes equal an earlier column's reuses its strings.  Bytes, not floats,
    are compared, so 0.0 and -0.0 stay apart: û is u, bit for bit, wherever no gain fired, as
    the step passes u through there (u + 0.0*y would turn a resting node's -0.0 into 0.0).

    All checks come before the file is opened, so a refused write leaves no file.
    """
    if not len(trace):
        raise ConfigurationError("refusing to write an empty trace")
    check_count(decimation, "decimation")
    w, data = trace.width, trace.data
    rows = range(0, len(trace), decimation)
    per_chunk = max(1, CHUNK_VALUES // w)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(["n", *trace.columns]) + "\n")
        for first in range(0, len(rows), per_chunk):
            chunk = rows[first:first + per_chunk]
            a, b = chunk[0] * w, chunk[-1] * w + w
            formatted, columns = {}, []
            for j in trace.columns.values():
                col = data[a + j:b:w * decimation]
                key = col.tobytes()
                if key not in formatted:
                    same = key == key[:8] * len(col)
                    formatted[key] = [repr(col[0])] * len(col) if same else list(map(repr, col))
                columns.append(formatted[key])
            fh.write("\n".join(map(",".join, zip(map(str, chunk), *columns))) + "\n")


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
