"""The output-comparison tool: its op list, a small record and the diff."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "compare_outputs", ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


def test_ops_cover_three_rounds_of_every_workload_and_the_probes(
        monkeypatch):
    monkeypatch.setattr(sys, "path", sys.path[:])   # ops() adds bench/
    ops = compare_outputs.ops()
    labels = [label for label, _, _ in ops]
    assert len(set(labels)) == len(labels)
    for workload in ("analyze-catalog", "fringe-scan", "bell-grid"):
        assert {label.split("/")[1] for label in labels
                if label.startswith(workload + "/")} == {"0", "1", "2"}
    probes = [argv for label, argv, _ in ops if label.startswith("probe/")]
    assert len(probes) == len(compare_outputs.PROBES)
    # fringe scans, three of them on the states the moment route was
    # measured on, bell-scans on the unitary route (two beamsplitters) and
    # two on the default input-operator route, the second also at the
    # default grid, then analyze on split inputs: one that runs, two that
    # are refused and three real-alpha coherent ones, then a unitary
    # bell-scan refused on its Gram stacks, and last a default-route
    # bell-scan on a high-sector split
    assert [argv[0] for argv in probes] == (["fringe"] * 10
                                            + ["bell-scan"] * 4
                                            + ["analyze"] * 6
                                            + ["bell-scan"] * 2)
    assert [argv[2] for argv in probes[7:10]] == [
        "split_number n=50", "noisy_split_photon w=0.5 alpha_re=0.7",
        "split_coherent alpha_re=1.5 alpha_im=0.3"]
    assert all(argv[argv.index("--route") + 1] == "unitary"
               for argv in probes[10:12])
    assert all("--route" not in argv for argv in probes[12:14])
    assert probes[13] == ["bell-scan", "--state",
                          "split_coherent alpha_re=1.2 alpha_im=0.4"]
    assert [argv[2] for argv in probes[14:]] == [
        "split_number n=200", "split_thermal nbar=4.2", "split_number n=1448",
        "split_coherent alpha_re=0.7", "split_coherent alpha_re=1.5",
        "split_coherent alpha_re=3", "split_number n=700",
        "split_number n=200"]
    assert probes[20][probes[20].index("--route") + 1] == "unitary"
    assert probes[21] == ["bell-scan", "--state", "split_number n=200",
                          "--grid", "4"]


def test_record_then_diff(tmp_path, monkeypatch, capsys):
    # record pins the thread variables and puts src/ on the path
    for var in compare_outputs.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", sys.path[:])
    three, big = compare_outputs.PROBES[5], compare_outputs.PROBES[6]
    monkeypatch.setattr(compare_outputs, "ops", lambda: [
        ("probe/5", *three), ("probe/6", *big)])
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    assert compare_outputs.main(["record", "--src", str(ROOT / "src"),
                                 "--out", str(old)]) == 0
    ops = json.loads(old.read_text())["ops"]
    assert ops["probe/5"]["code"] == 0
    assert "visibility_fit = 1" in ops["probe/5"]["stdout"]
    # no longer padded to 1501^2 amplitudes and refused
    assert (ops["probe/6"]["code"], ops["probe/6"]["stderr"]) == (0, "")
    assert "g1_mag = 0" in ops["probe/6"]["stdout"]
    capsys.readouterr()
    assert compare_outputs.main(["diff", str(old), str(old)]) == 0
    assert capsys.readouterr().out == "2 ops, 0 differ\n"

    ops["probe/5"]["stdout"] += "\n"
    new.write_text(json.dumps({"src": "changed", "ops": ops}))
    assert compare_outputs.main(["diff", str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "probe/5: fringe --state split_single_photon --phases 3: "
        "stdout differ", "2 ops, 1 differ"]

    # a numeric change is reported with its size, absolute and relative
    ops["probe/5"]["stdout"] = ops["probe/5"]["stdout"].replace(
        "visibility_fit = 1\n", "visibility_fit = 0.9999999999995\n")
    new.write_text(json.dumps({"src": "changed", "ops": ops}))
    assert compare_outputs.main(["diff", str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "probe/5: fringe --state split_single_photon --phases 3: "
        "stdout differ; largest numeric difference 5e-13 on a value of 1 "
        "(relative 5e-13)", "2 ops, 1 differ"]


def test_largest_difference_pairs_fields_by_place():
    old = "phase,intensity_c\n0,9950\n1,-2e-17\nb_max = 2.5\nflag = true\n"
    new = "phase,intensity_c\n0,9950.00000000001\n1,3e-17\nb_max = 2.5\n"
    gap, size = compare_outputs.largest_difference(old, new)
    assert size == 9950.00000000001
    assert gap == 9950.00000000001 - 9950
    assert compare_outputs.largest_difference(old, old) is None
    assert compare_outputs.largest_difference("x = true", "x = false") is None
