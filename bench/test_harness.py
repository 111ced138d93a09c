"""Self-tests of the benchmark harness: tracer arithmetic, output checks
and input generation. Run with ``python3 -m pytest bench``."""

import itertools

import pytest

import tracer as tracing
import workloads


def test_self_time_of_nested_spans():
    now = [0.0]
    tr = tracing.Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 5.0

    inner = tr.span("inner", inner)

    def outer():
        now[0] += 1.0
        inner()
        now[0] += 2.0
        inner()
        now[0] += 3.0

    outer = tr.span("outer", outer)
    outer()
    inner()
    s = tr.summary()
    assert s["spans"]["outer"] == {"calls": 1, "total_s": 16.0, "self_s": 6.0}
    assert s["spans"]["inner"] == {"calls": 3, "total_s": 15.0, "self_s": 15.0}
    assert s["edges"] == {">outer": 16.0, "outer>inner": 10.0, ">inner": 5.0}


def test_span_counts_exceptions_and_closes():
    now = [0.0]
    tr = tracing.Tracer(clock=lambda: now[0])

    def boom():
        now[0] += 1.0
        raise KeyError("x")

    boom = tr.span("boom", boom)
    with pytest.raises(KeyError):
        boom()
    assert tr.counters == {"boom.raised.KeyError": 1}
    assert tr.stack == []
    assert tr.summary()["spans"]["boom"]["total_s"] == 1.0


def test_missing_target_is_reported_absent():
    tr = tracing.Tracer()
    assert not tr._patch_everywhere("semichain.chain", "_no_such_kernel",
                                    lambda fn: fn)
    assert tr.absent == ["semichain.chain._no_such_kernel"]


def test_install_wraps_and_uninstall_restores():
    cli = pytest.importorskip("semichain.cli")
    import semichain.chain as ch
    import semichain.runner as runner
    rates, run = ch._rates, runner.run
    tr = tracing.Tracer()
    tr.install()
    try:
        assert ch._rates is not rates
        assert runner.run is not run and cli._run is runner.run
    finally:
        tr.uninstall()
    assert ch._rates is rates and runner.run is run and cli._run is run
    assert tr.absent == []


def test_duplicate_pairs_counted_within_segments():
    np = pytest.importorskip("numpy")
    tr = tracing.Tracer()
    tr.spans = [["chain.initial_chain", -1, 0.0, None],
                ["sampling.sample_positions", 0, 0.0, None]]
    tr.stack = [0, 1]
    # segments [0, 3) and [3, 6); the pair (2, 3) crosses the boundary
    alphas = np.array([[0j], [0j], [1j], [1j], [2j], [2j]])
    tracing._after_sample(tr, (), {}, (alphas, np.array([0, 3])))
    assert tr.counters == {"sampling.initial.points": 6,
                           "sampling.initial.pairs": 4,
                           "sampling.initial.dup_pairs": 2}


def _chain_csv(shift_se=0.0):
    lines = [workloads.CSV_HEADER]
    n_times = round(workloads.CHAIN_T / workloads.CHAIN_RECORD) + 1
    for i in range(n_times):
        t = i * workloads.CHAIN_RECORD
        for name, value in (("sz", 0.9), ("a_adag", 2.0), ("sm_astar", 0.1)):
            est = value + (shift_se * 0.01 if (i, name) == (1, "a_adag") else 0.0)
            lines.append(f"{t},{name},{est},0,0.01,{value},0")
    return "\n".join(lines) + "\n"


def _oracle_csv(perturb=0.0):
    lines = [workloads.CSV_HEADER]
    n_times = round(workloads.ORACLE_T / workloads.ORACLE_RECORD) + 1
    for i in range(n_times):
        t = i * workloads.ORACLE_RECORD
        sz = 1.0 - 0.1 * i
        a0 = 2.0 + 0.03 * i
        a1 = 1.64 + 0.02 * i + (perturb if i == 1 else 0.0)
        for name, value in (("sz", sz), ("a0_adag0", a0), ("a1_adag1", a1)):
            lines.append(f"{t},{name},,,,{value!r},0")
    return "\n".join(lines) + "\n"


def _suite_csv(shift_se=0.0):
    lines = [workloads.SUITE_HEADER]
    names = ("alpha0", "alpha0_abs2", "pop0", "pop1", "coh01")
    for stage in ("before", "after"):
        for name in names:
            v = 0.5 + (shift_se * 0.01 * 2 ** 0.5
                       if (stage, name) == ("after", "pop1") else 0.0)
            lines.append(f"{stage},{name},{v!r},0,0.01")
    return "\n".join(lines) + "\n"


def test_checks_accept_good_outputs():
    workloads.check_output("chain-large", _chain_csv(shift_se=4.0))
    workloads.check_output("oracle-2mode", _oracle_csv())
    workloads.check_output("resample", _suite_csv(shift_se=2.9))


@pytest.mark.parametrize("workload, text, error", [
    ("chain-large", _chain_csv(shift_se=6.0), None),
    ("oracle-2mode", _oracle_csv(perturb=1e-6), None),
    ("resample", "", "InterpolationDegraded: observable pop0 moved"),
    ("resample", _suite_csv(shift_se=3.1), None),
    ("chain-large", _chain_csv().replace("oracle_im", "oracle"), None),
    ("oracle-2mode", "\n".join(_oracle_csv().splitlines()[:-1]) + "\n", None),
])
def test_checks_reject_doctored_outputs(workload, text, error):
    with pytest.raises(ValueError):
        workloads.check_output(workload, text, error)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    def first(seed):
        return list(itertools.islice(workloads.make_inputs(workload, seed), 5))

    assert first(7) == first(7)
    assert first(7) != first(8)
    assert len({inp["seed"] for inp in first(7)}) == 5
