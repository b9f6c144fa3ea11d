from statistics import fmean

import pytest

from keycube import experiment
from keycube.experiment import (
    CellSummary,
    ExperimentPlan,
    derive_seed,
    format_summary_table,
    run_experiment,
)

SMALL_PLAN = ExperimentPlan(node_counts=(4, 8), object_counts=(5, 20),
                            queries_per_cell=8, superset_limit=4, seed=31)


@pytest.fixture(scope="module")
def small_report():
    return run_experiment(SMALL_PLAN)


def test_plan_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        ExperimentPlan(node_counts=(8, 12))


def test_plan_rejects_bad_counts():
    with pytest.raises(ValueError):
        ExperimentPlan(queries_per_cell=0)
    with pytest.raises(ValueError):
        ExperimentPlan(superset_limit=0)


@pytest.mark.parametrize("count", [-5, 1.5, True, "3", None])
def test_plan_rejects_object_counts_that_are_not_counts(count):
    with pytest.raises(ValueError, match="object counts"):
        ExperimentPlan(object_counts=(10, count))


@pytest.mark.parametrize("field, value", [
    ("node_counts", (4.0,)), ("node_counts", (True, 4)), ("node_counts", ("8",)),
    ("queries_per_cell", True), ("queries_per_cell", 2.5), ("queries_per_cell", "3"),
    ("superset_limit", True), ("superset_limit", 1.5), ("superset_limit", None),
    ("seed", 1.5), ("seed", True), ("seed", "2021"),
])
def test_plan_rejects_counts_that_are_not_ints(field, value):
    with pytest.raises(ValueError, match="node count" if field == "node_counts" else field):
        ExperimentPlan(**{field: value})


def test_plan_keeps_zero_objects():
    report = run_experiment(ExperimentPlan(node_counts=(4,), object_counts=(0,),
                                           queries_per_cell=3, seed=1))
    assert {summary.objects for summary in report.summaries} == {0}


def test_plan_dimensions():
    assert ExperimentPlan().dimensions == (3, 4, 5, 6, 7)


def test_derive_seed_is_frozen():
    # Stability contract: these exact values must never drift.
    assert derive_seed(2021, 3, 10, "populate") == 3660263284228126446
    assert derive_seed(2021, 7, 1000, "superset") == 7685360072391589932
    assert derive_seed(0, 2, 10, "pin") == 5892377678308640390


def test_report_has_one_summary_per_cell_and_op(small_report):
    assert len(small_report.summaries) == 2 * 2 * 2
    assert len(small_report.records) == 2 * 2 * 2 * 8


def test_summary_mean_matches_raw_records(small_report):
    for cell in small_report.summaries:
        hops = [rec.hops for rec in small_report.records
                if (rec.nodes, rec.objects, rec.op) == (cell.nodes, cell.objects, cell.op)]
        assert cell.mean_hops == pytest.approx(fmean(hops))


def test_superset_results_respect_limit(small_report):
    for rec in small_report.records:
        if rec.op == "superset":
            assert rec.results <= SMALL_PLAN.superset_limit


def test_run_is_pure_function_of_plan(small_report):
    again = run_experiment(SMALL_PLAN)
    assert again.summaries == small_report.summaries
    assert again.records == small_report.records


def test_csv_outputs_are_byte_identical(tmp_path, small_report):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    run_again = run_experiment(SMALL_PLAN)
    for report, path in zip((small_report, run_again), paths):
        report.write_summary_csv(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_summary_csv_schema(tmp_path, small_report):
    path = tmp_path / "summary.csv"
    small_report.write_summary_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "r,nodes,objects,op,mean_hops,queries"
    assert len(lines) == 1 + len(small_report.summaries)
    first = lines[1].split(",")
    assert first[0] == "2" and first[1] == "4"


def test_raw_csv_schema(tmp_path, small_report):
    path = tmp_path / "raw.csv"
    small_report.write_raw_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "r,nodes,objects,op,query_index,start,keywords,hops,results"
    assert len(lines) == 1 + len(small_report.records)


def test_mean_hops_lookup(small_report):
    cell = small_report.summaries[0]
    assert small_report.mean_hops(cell.nodes, cell.objects, cell.op) == cell.mean_hops
    with pytest.raises(KeyError):
        small_report.mean_hops(256, 5, "pin")


def test_format_summary_table():
    table = format_summary_table([CellSummary(3, 8, 10, "pin", 1.5, 50)])
    lines = table.splitlines()
    assert len(lines) == 2
    assert "mean_hops" in lines[0]
    assert "1.500" in lines[1]


def test_every_network_is_closed_after_its_cell(monkeypatch):
    real_build, built, closed = experiment.build_network, [], []

    def build_network(cfg):
        assert closed == built  # the previous cell's network is closed
        net = real_build(cfg)
        net.close = lambda: closed.append(cfg.r)
        built.append(cfg.r)
        return net

    monkeypatch.setattr(experiment, "build_network", build_network)
    run_experiment(ExperimentPlan())
    assert len(closed) == 15 and closed == built
