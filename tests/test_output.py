import random
import tracemalloc

import pytest

import passivenet as pn
from passivenet.output import CHUNK_VALUES
from passivenet.sim import SummaryMetrics, Trace

from conftest import PASSIVE_BASELINE, driven_topology, per_node


def _tiny_trace():
    trace = Trace(dt=0.001, xi=12.0, num_nodes=2)
    for n in range(5):
        trace.append(
            t=n * 0.001,
            u_ext=0.1 * n,
            y=0.123456789012345 * n,
            x=float(n),
            u=(1.0 / 3.0 * n, -2.0 * n),
            u_hat=(1.0 / 3.0 * n, -1.5 * n),
            alpha=(0.0, 0.25 * n),
            dissipated=(0.0, 0.5 * n),
            e_obs=-1e-7 * n,
            e_hat=0.0,
        )
    return trace


def test_trace_header_layout():
    assert pn.trace_header(2) == "n,t,u_ext,y,x,u1,uhat1,alpha1,D1,u2,uhat2,alpha2,D2,E_obs,E_hat"
    assert len(pn.trace_header(3).split(",")) == 5 + 4 * 3 + 2


def test_trace_values_round_trip_exactly(tmp_path):
    trace = _tiny_trace()
    path = tmp_path / "t.csv"
    pn.write_trace(trace, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 6
    header = lines[0].split(",")
    for n, line in enumerate(lines[1:]):
        cells = dict(zip(header, line.split(",")))
        assert int(cells["n"]) == n
        assert float(cells["y"]) == trace.column("y")[n]  # repr precision round-trips
        assert float(cells["u2"]) == trace.column("u2")[n]
        assert float(cells["E_obs"]) == trace.column("E_obs")[n]


def test_trace_decimation_and_validation(tmp_path):
    trace = _tiny_trace()
    path = tmp_path / "t.csv"
    pn.write_trace(trace, path, decimation=2)
    assert len(path.read_text().splitlines()) == 1 + 3  # n in {0, 2, 4}
    with pytest.raises(pn.ConfigurationError):
        pn.write_trace(trace, path, decimation=0)
    with pytest.raises(pn.ConfigurationError):
        pn.write_trace(Trace(dt=0.001, xi=1.0, num_nodes=2), path)


def test_refused_write_creates_no_file(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(pn.ConfigurationError, match="decimation"):
        pn.write_trace(_tiny_trace(), path, decimation=0)
    with pytest.raises(pn.ConfigurationError, match="empty"):
        pn.write_trace(Trace(dt=0.001, xi=1.0, num_nodes=2), path)
    assert not path.exists()
    for decimation in (2.5, 1.0, True):
        with pytest.raises(pn.ConfigurationError, match="decimation must be an integer"):
            pn.write_trace(_tiny_trace(), path, decimation=decimation)
    assert not path.exists()


def _row_wise_reference(trace, decimation):
    """The CSV bytes as the writer formed them one row at a time, before it went column-wise."""
    columns = [trace.column(name)[::decimation] for name in trace.columns]
    lines = [pn.trace_header(trace.num_nodes)] + [
        f"{n}," + ",".join(map(repr, row))
        for n, row in zip(range(0, len(trace), decimation), zip(*columns))
    ]
    return ("\n".join(lines) + "\n").encode()


SIGNED_ZERO_PER_CHUNK = CHUNK_VALUES // (6 + 4 * 2)  # rows in a chunk of a two-node trace


def _signed_zero_trace(rows):
    """Two nodes whose columns probe the writer's reuse rules over ``rows`` rows.

    u_ext is constant in the first chunk only; x has the bytes of y; uhat1 is
    u1 except for one -0.0 where u1 is 0.0; alpha1 and alpha2, and E_obs and
    E_hat, are constant columns of 0.0 and -0.0; D1 alternates the two zeros.
    """
    trace = Trace(dt=0.001, xi=1.0, num_nodes=2)
    for n in range(rows):
        u1 = 1.0 / (n + 1) if n % 5 == 0 else 0.0
        trace.append(
            t=n * 0.001,
            u_ext=0.0 if n < SIGNED_ZERO_PER_CHUNK else 0.5 * n,
            y=0.1 * n,
            x=0.1 * n,
            u=(u1, -0.0 if n % 3 == 0 else 0.0),
            u_hat=(-0.0 if n == 7 else u1, -0.0 if n % 3 == 0 else 0.0),
            alpha=(0.0, -0.0),
            dissipated=(-0.0 if n % 2 else 0.0, 0.25 * n),
            e_obs=0.0,
            e_hat=-0.0,
        )
    return trace


def test_writer_matches_the_row_wise_reference(tmp_path, bundled_runs):
    path = tmp_path / "t.csv"
    cases = [(name, trace) for name, (_cfg, trace, _m) in bundled_runs.items()]
    scen = pn.Scenario(kind="dual-sine", duration=1.5, dt=0.001, amplitude=20.0)
    driven = pn.build(driven_topology(8), scen).run()[0]
    fired = [any(alpha) for alpha in per_node(driven, "alpha")]
    assert 0 < sum(fired) < len(fired)  # fired and unfired rows side by side
    cases.append(("driven_topology(8)", driven))
    per_chunk = SIGNED_ZERO_PER_CHUNK
    for rows in (1, 8, per_chunk - 1, per_chunk, per_chunk + 1, 2 * per_chunk - 1,
                 2 * per_chunk + 1, 7 * per_chunk - 1, 7 * per_chunk + 1):
        cases.append((f"signed zeros, {rows} rows", _signed_zero_trace(rows)))
    for name, trace in cases:
        for decimation in (1, 7):
            pn.write_trace(trace, path, decimation)
            assert path.read_bytes() == _row_wise_reference(trace, decimation), (name, decimation)


def test_columns_name_the_trace_file(bundled_runs):
    # test_writer_matches_the_row_wise_reference checks each bundled file's bytes,
    # header included, against the columns; the benchmark harness iterates
    # records, so they must match the columns too
    for name, (_cfg, trace, _m) in bundled_runs.items():
        records = list(trace.records)
        assert all(type(r) is pn.StepRecord for r in records), name
        assert [r.n for r in records] == list(range(len(trace))), name
        assert [r.y.hex() for r in records] == [v.hex() for v in trace.column("y")]
        assert [r.e_hat.hex() for r in records] == [v.hex() for v in trace.column("E_hat")]
        assert [tuple(v.hex() for v in r.u_hat) for r in records] == [
            tuple(v.hex() for v in row) for row in per_node(trace, "uhat")
        ], name


def _random_trace(steps, m=8):
    rng = random.Random(0)
    pool = [[float(rng.randrange(-999, 1000)) for _ in range(m)] for _ in range(64)]
    trace = Trace(dt=0.001, xi=1.0, num_nodes=m)
    for n in range(steps):
        trace.append(n * 0.001, *pool[n % 61][:3], *pool[n % 59:n % 59 + 4],
                     *pool[n % 53][3:5])
    return trace


def _peak_write_bytes(trace, path):
    tracemalloc.start()
    try:
        pn.write_trace(trace, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_memory_does_not_grow_with_trace_length(tmp_path):
    short, long = _random_trace(2000), _random_trace(4000)
    peak_short = _peak_write_bytes(short, tmp_path / "short.csv")
    peak_long = _peak_write_bytes(long, tmp_path / "long.csv")
    size_long = (tmp_path / "long.csv").stat().st_size
    assert len(long) == 2 * len(short)
    assert peak_long <= 1.1 * peak_short
    assert peak_long < size_long  # the file is streamed, never held whole


def test_writer_peak_on_a_wide_trace_stays_small(tmp_path):
    # 64 nodes at full-precision values: about 4.9 kB a row, 2.4 MB of CSV in all
    rng = random.Random(64)
    pool = [[rng.uniform(-1e3, 1e3) for _ in range(64)] for _ in range(16)]
    trace = Trace(dt=0.001, xi=1.0, num_nodes=64)
    for n in range(500):
        trace.append(n * 0.001, *pool[n % 13][:3], *pool[n % 11:n % 11 + 4], *pool[n % 7][3:5])
    path = tmp_path / "wide.csv"
    peak = _peak_write_bytes(trace, path)
    assert path.stat().st_size > 2_000_000
    assert peak < 1_000_000  # a chunk of formatted rows, never many chunks at once


def test_summary_round_trip(tmp_path):
    metrics = SummaryMetrics(
        diverged=False,
        min_e_hat=-3.25e-12,
        final_abs_y=0.00125,
        dissipated=(1.5, 0.25, 0.0),
        shares=(6.0 / 7.0, 1.0 / 7.0, 0.0),
        total_injected=1.75,
        steps=420,
    )
    path = tmp_path / "s.txt"
    pn.write_summary(metrics, path)
    got = pn.read_summary(path)
    assert got["diverged"] == "false"
    assert float(got["min_E_hat"]) == metrics.min_e_hat
    assert float(got["final_abs_y"]) == metrics.final_abs_y
    assert [float(got[f"D{i}"]) for i in (1, 2, 3)] == list(metrics.dissipated)
    assert [float(got[f"share{i}"]) for i in (1, 2, 3)] == list(metrics.shares)
    assert float(got["total_injected_energy"]) == 1.75
    assert got["steps"] == "420"


def test_quiet_run_summary_has_zero_injection():
    scen = pn.Scenario(kind="external", duration=0.05, dt=0.001, samples=())
    _trace, metrics = pn.build(PASSIVE_BASELINE, scen).run()
    assert metrics.total_injected == 0.0
    assert metrics.shares == (0.0, 0.0, 0.0)
