import argparse

import pytest

from arcgen.caps import Caps
from arcgen.cli import (
    EXIT_CAP,
    EXIT_FAIL,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_PARTIAL,
    build_parser,
    main,
)
from arcgen.graph_builder import build_family_graph, parse_edge_list_lines
from arcgen.pipeline import ConstructionParams, verify_theorem1


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def mask_elapsed(certificate: str) -> str:
    """Strip the per-claim timing column, the only nondeterministic field."""
    lines = certificate.strip().splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        out.append(" ".join(line.split()[:-1]))
    return "\n".join(out)


# -- construct ---------------------------------------------------------------


def test_construct_writes_expected_files(tmp_path, capsys):
    out = tmp_path / "g2"
    code, stdout, stderr = run_cli(
        capsys, "construct", "--p", "2", "--h", "2", "--out", str(out)
    )
    assert code == EXIT_OK
    assert stdout.strip() == "2 2 32 8 65536"
    edges = (tmp_path / "g2.edges").read_text(encoding="ascii")
    graph, _ = parse_edge_list_lines(edges.splitlines())
    assert graph.n == 32 and graph.m == 128
    big = (tmp_path / "g2.big.gens").read_text().strip().splitlines()
    small = (tmp_path / "g2.small.gens").read_text().strip().splitlines()
    assert len(big) == 14  # 10 module vectors + a, b + phi, psi
    assert len(small) == 12
    for line in big:
        assert sorted(int(t) for t in line.split()) == list(range(32))


def test_construct_sparse6(tmp_path, capsys):
    nx = pytest.importorskip("networkx")
    out = tmp_path / "g31"
    code, stdout, _ = run_cli(
        capsys,
        "construct", "--p", "3", "--h", "1", "--out", str(out),
        "--format", "sparse6",
    )
    assert code == EXIT_OK
    data = (tmp_path / "g31.s6").read_bytes()
    assert data.startswith(b":")
    ref = nx.from_sparse6_bytes(data.strip())
    assert ref.number_of_nodes() == 27
    assert sorted(tuple(sorted(e)) for e in ref.edges()) == build_family_graph(3, 1).edges()


def test_construct_rejects_non_prime(tmp_path, capsys):
    code, stdout, stderr = run_cli(
        capsys, "construct", "--p", "4", "--h", "1", "--out", str(tmp_path / "x")
    )
    assert code == EXIT_INPUT
    assert "prime" in stderr
    assert stdout == ""


def test_construct_degenerate_warns_on_stderr(tmp_path, capsys):
    code, stdout, stderr = run_cli(
        capsys, "construct", "--p", "2", "--h", "1", "--out", str(tmp_path / "g1")
    )
    assert code == EXIT_OK
    assert "degenerate" in stderr
    assert stdout.strip() == "2 1 8 4 64"


def test_construct_cap_exit(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys,
        "construct", "--p", "2", "--h", "2", "--out", str(tmp_path / "g"),
        "--order-cap", "100",
    )
    assert code == EXIT_CAP
    assert "order cap (100) exceeded" in stderr


def test_construct_unwritable_out_is_invalid_input(tmp_path, capsys):
    out = tmp_path / "missing" / "g"
    code, stdout, stderr = run_cli(
        capsys, "construct", "--p", "2", "--h", "1", "--out", str(out)
    )
    assert code == EXIT_INPUT
    assert stdout == ""
    assert stderr.splitlines()[-1].startswith(f"error: cannot write {out}.edges: ")


# -- verify-t1 ---------------------------------------------------------------


def test_verify_t1_pass(capsys):
    code, stdout, _ = run_cli(capsys, "verify-t1", "--p", "2", "--h", "2")
    assert code == EXIT_OK
    lines = stdout.strip().splitlines()
    assert len(lines) == 10  # header + 9 claims
    assert all(line.split()[3] == "pass" for line in lines[1:])


def test_verify_t1_degenerate_fails(capsys):
    code, stdout, _ = run_cli(capsys, "verify-t1", "--p", "2", "--h", "1")
    assert code == EXIT_FAIL
    statuses = {l.split()[0]: l.split()[3] for l in stdout.strip().splitlines()[1:]}
    assert statuses["C4"] == "fail" and statuses["C8"] == "fail"


def test_verify_t1_partial_when_caps_fire(capsys):
    code, stdout, _ = run_cli(
        capsys, "verify-t1", "--p", "2", "--h", "2", "--order-cap", "100"
    )
    assert code == EXIT_PARTIAL
    assert "skipped:order_cap" in stdout


def test_verify_t1_output_deterministic_modulo_timing(capsys):
    _, first, _ = run_cli(capsys, "verify-t1", "--p", "3", "--h", "1")
    _, second, _ = run_cli(capsys, "verify-t1", "--p", "3", "--h", "1")
    assert mask_elapsed(first) == mask_elapsed(second)


# -- verify-t2 ---------------------------------------------------------------

C5_INSTANCE = """5 5
0 1
0 4
1 2
2 3
3 4

1 2 3 4 0
0 4 3 2 1
"""


def test_verify_t2_c5(tmp_path, capsys):
    path = tmp_path / "c5.instance"
    path.write_text(C5_INSTANCE)
    code, stdout, _ = run_cli(capsys, "verify-t2", str(path))
    assert code == EXIT_OK
    assert "decomposition_ok=true" in stdout
    assert "size_bound_ok=true" in stdout
    assert "generation_ok=true" in stdout


def test_verify_t2_parse_error_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.instance"
    path.write_text("5 5\n0 1\n0 4\n1 2\n2 x\n3 4\n\n1 2 3 4 0\n")
    code, _, stderr = run_cli(capsys, "verify-t2", str(path))
    assert code == EXIT_INPUT
    assert "line 5" in stderr


def test_verify_t2_non_automorphism_generator(tmp_path, capsys):
    path = tmp_path / "bad.instance"
    # first generator does not preserve the 4-cycle
    path.write_text("4 4\n0 1\n0 3\n1 2\n2 3\n\n1 0 2 3\n1 2 3 0\n")
    code, _, stderr = run_cli(capsys, "verify-t2", str(path))
    assert code == EXIT_INPUT
    assert "generator 1 is not an automorphism" in stderr


def test_verify_t2_missing_file(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "verify-t2", str(tmp_path / "nope"))
    assert code == EXIT_INPUT
    assert "cannot read" in stderr


def test_verify_t2_oversized_image_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "huge.instance"
    path.write_text(C5_INSTANCE.replace("1 2 3 4 0", "0 4 3 2 99999999999"))
    code, _, stderr = run_cli(capsys, "verify-t2", str(path))
    assert code == EXIT_INPUT
    assert "line 8" in stderr


def test_verify_t2_header_over_the_vertex_cap(tmp_path, capsys):
    path = tmp_path / "huge.instance"
    path.write_text("99999999999 1\n0 1\n\n1 0\n")
    code, _, stderr = run_cli(capsys, "verify-t2", str(path))
    assert code == EXIT_CAP
    assert "vertex cap" in stderr


def round_trip_instance(tmp_path, capsys, p, h):
    """Construct the (p, h) member and write it as a verify-t2 instance."""
    out = tmp_path / f"g{p}{h}"
    code, _, _ = run_cli(
        capsys, "construct", "--p", str(p), "--h", str(h), "--out", str(out)
    )
    assert code == EXIT_OK
    instance = tmp_path / f"g{p}{h}.instance"
    instance.write_text(
        (tmp_path / f"g{p}{h}.edges").read_text()
        + "\n"
        + (tmp_path / f"g{p}{h}.big.gens").read_text()
    )
    return instance


def test_verify_t2_round_trip_with_construct(tmp_path, capsys):
    instance = round_trip_instance(tmp_path, capsys, 2, 2)
    code, stdout, _ = run_cli(capsys, "verify-t2", str(instance))
    assert code == EXIT_OK
    assert "G_order=65536" in stdout


def test_verify_t2_exponent_cap(tmp_path, capsys):
    # only e is skipped: every other line is the uncapped certificate's
    path = tmp_path / "c5.instance"
    path.write_text(C5_INSTANCE)
    _, full, _ = run_cli(capsys, "verify-t2", str(path))
    code, stdout, stderr = run_cli(
        capsys, "verify-t2", str(path), "--exponent-cap", "4"
    )
    assert code == EXIT_PARTIAL
    assert stdout == full.replace("e=10\n", "e=skipped:exponent_cap\n")
    assert "e=skipped:exponent_cap" in stdout and "G_order=10" in stdout
    assert stderr == ""


def test_verify_t2_round_trip_under_the_exponent_cap(tmp_path, capsys):
    instance = round_trip_instance(tmp_path, capsys, 2, 2)
    _, full, _ = run_cli(capsys, "verify-t2", str(instance))
    code, stdout, _ = run_cli(capsys, "verify-t2", str(instance), "--exponent-cap", "2^10")
    assert code == EXIT_PARTIAL
    assert stdout == full.replace(" e=8\n", " e=skipped:exponent_cap\n")
    for line in ("G_order=65536", "decomposition_ok=true", "size_bound_ok=true", "generation_ok=true"):
        assert line in stdout.splitlines()


TWO_TRIANGLES_INSTANCE = """6 6
0 1
1 2
0 2
3 4
4 5
3 5

1 2 0 4 5 3
3 4 5 0 1 2
"""


@pytest.mark.parametrize("caps", [(), ("--order-cap", "1")])
def test_verify_t2_disconnected_instance(tmp_path, capsys, caps):
    # vertex-transitive but two components: the connection subgroup's
    # orbit of vertex 0 is its triangle, found before any chain is built
    path = tmp_path / "two_triangles.instance"
    path.write_text(TWO_TRIANGLES_INSTANCE)
    code, stdout, stderr = run_cli(capsys, "verify-t2", str(path), *caps)
    assert code == EXIT_INPUT
    assert stdout == ""
    assert stderr == "error: graph is not connected\n"


def test_verify_t2_order_cap_still_exits_3(tmp_path, capsys):
    path = tmp_path / "c5.instance"
    path.write_text(C5_INSTANCE)
    code, stdout, stderr = run_cli(capsys, "verify-t2", str(path), "--order-cap", "4")
    assert code == EXIT_CAP
    assert stdout == ""
    assert "order cap (4) exceeded" in stderr


def test_bad_cap_values_rejected(capsys):
    code, _, stderr = run_cli(
        capsys, "verify-t1", "--p", "2", "--h", "1", "--order-cap", "0"
    )
    assert code == EXIT_INPUT
    assert "order cap" in stderr


def exit_code(capsys, *argv):
    """main's exit code, also when argparse refuses the arguments."""
    try:
        return run_cli(capsys, *argv)[0]
    except SystemExit as exc:
        capsys.readouterr()
        return exc.code


def test_caps_accept_powers(tmp_path, capsys):
    # 2^20000 has 6,021 digits, past the 4,300 that int() reads
    for cap in ("2^2000", "2^20000", "2^1048576"):
        args = build_parser().parse_args(["verify-t1", "--p", "2", "--h", "2", "--order-cap", cap])
        base, exp = map(int, cap.split("^"))
        assert args.order_cap == base**exp
        assert exit_code(capsys, "verify-t1", "--p", "2", "--h", "2", "--order-cap", cap) == EXIT_OK
    code, stdout, _ = run_cli(capsys, "verify-t1", "--p", "2", "--h", "2", "--order-cap", "10^2")
    assert code == EXIT_PARTIAL and "skipped:order_cap" in stdout
    path = tmp_path / "c5.instance"
    path.write_text(C5_INSTANCE)
    code, stdout, _ = run_cli(capsys, "verify-t2", str(path), "--exponent-cap", "2^2")
    assert code == EXIT_PARTIAL and "e=skipped:exponent_cap" in stdout
    assert "G_order=10" in stdout and "generation_ok=true" in stdout


@pytest.mark.parametrize(
    "cap", ["2^", "^3", "2^-1", "0^5", "2^1048577", "10^99999999999", "５", "1_0", "+5", " 5"]
)
def test_bad_power_caps_rejected(tmp_path, capsys, cap):
    # each command takes a good cap, so only the cap's form refuses it
    path = tmp_path / "c5.instance"
    path.write_text(C5_INSTANCE)
    out = str(tmp_path / "g")
    for argv in (
        ["verify-t1", "--p", "2", "--h", "1", "--order-cap"],
        ["construct", "--p", "2", "--h", "1", "--out", out, "--order-cap"],
        ["verify-t2", str(path), "--order-cap"],
        ["verify-t2", str(path), "--exponent-cap"],
    ):
        assert exit_code(capsys, *argv, "2^10") != EXIT_INPUT
        assert exit_code(capsys, *argv, cap) == EXIT_INPUT


def test_exponent_cap_is_a_verify_t2_flag(tmp_path, capsys):
    # construct and verify-t1 compute no exponent, and refuse the flag
    out = str(tmp_path / "g")
    assert exit_code(capsys, "verify-t1", "--p", "2", "--h", "2", "--exponent-cap", "5") == EXIT_INPUT
    argv = ["construct", "--p", "2", "--h", "2", "--out", out, "--exponent-cap", "5"]
    assert exit_code(capsys, *argv) == EXIT_INPUT
    assert not list(tmp_path.iterdir())


def test_two_main_calls_build_one_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser.cache_clear()
    assert run_cli(capsys, "verify-t1", "--p", "4", "--h", "1")[0] == EXIT_INPUT
    assert built.count("arcgen") == 1
    first = len(built)
    assert run_cli(capsys, "verify-t1", "--p", "4", "--h", "1")[0] == EXIT_INPUT
    assert exit_code(capsys, "verify-t1", "--p", "2") == EXIT_INPUT  # argparse's own refusal
    assert len(built) == first


def test_shared_parser_keeps_no_option_between_calls(capsys):
    # every parse starts from the defaults, so one call's cap does not reach the next
    parser = build_parser()
    assert parser.parse_args(["verify-t1", "--p", "2", "--h", "1", "--order-cap", "2^3"]).order_cap == 8
    assert parser.parse_args(["verify-t1", "--p", "2", "--h", "1"]).order_cap is None
    assert build_parser() is parser
    code, stdout, _ = run_cli(capsys, "verify-t1", "--p", "2", "--h", "2", "--order-cap", "10^2")
    assert code == EXIT_PARTIAL and "skipped:order_cap" in stdout
    code, stdout, _ = run_cli(capsys, "verify-t1", "--p", "2", "--h", "2")
    assert code == EXIT_OK and "skipped" not in stdout


# -- golden certificates -----------------------------------------------------
# Masked outputs pinned byte for byte: a refactor of the assembly path must
# leave every certificate and exit code unchanged.

GOLDEN_T1_22 = """\
family-certificate p=2 h=2 n=32 valency=8 big_order=65536 degenerate=0
C1 valency=8 valency=8 pass
C2 connected=true connected=true pass
C3 transitive=true transitive=true pass
C4 arc_transitive=false,orbits=4 arc_transitive=false,orbits=4 pass
C5 arc_orbit=256 arc_orbit=256 pass
C6 module_rank=4 module_rank=4 pass
C7 rank=6 rank=6 pass
C8 rank>=4 rank=5 pass
C9 dims=1,2,3,4,3,2,1 dims=1,2,3,4,3,2,1 pass"""

GOLDEN_T1_22_ORDER_CAP = """\
family-certificate p=2 h=2 n=32 valency=8 big_order=unknown degenerate=0
C1 valency=8 valency=8 pass
C2 connected=true connected=true pass
C3 transitive=true transitive=true pass
C4 arc_transitive=false,orbits=4 skipped:order_cap skipped
C5 arc_orbit=256 arc_orbit=256 pass
C6 module_rank=4 module_rank=4 pass
C7 rank=6 skipped:order_cap skipped
C8 rank>=4 skipped:order_cap skipped
C9 dims=1,2,3,4,3,2,1 dims=1,2,3,4,3,2,1 pass"""

GOLDEN_T1_21 = """\
family-certificate p=2 h=1 n=8 valency=4 big_order=64 degenerate=1
C1 valency=4(degenerate) valency=4 pass
C2 connected=true connected=true pass
C3 transitive=true transitive=true pass
C4 arc_transitive=false,orbits=4 arc_transitive=false,orbits=2 fail
C5 arc_orbit=32 arc_orbit=32 pass
C6 module_rank=2 module_rank=2 pass
C7 rank=4 rank=4 pass
C8 rank>=4 rank=3 fail
C9 dims=1,2,1 dims=1,2,1 pass"""

GOLDEN_22_VERTEX_CAP = """\
family-certificate p=2 h=2 n=unknown valency=unknown big_order=unknown degenerate=0
C1 valency=8 skipped:vertex_cap skipped
C2 connected=true skipped:vertex_cap skipped
C3 transitive=true skipped:vertex_cap skipped
C4 arc_transitive=false,orbits=4 skipped:vertex_cap skipped
C5 arc_orbit=all skipped:vertex_cap skipped
C6 module_rank=4 module_rank=4 pass
C7 rank=6 skipped:vertex_cap skipped
C8 rank>=4 skipped:vertex_cap skipped
C9 dims=1,2,3,4,3,2,1 dims=1,2,3,4,3,2,1 pass"""

GOLDEN_22_AMBIENT_CAP = """\
family-certificate p=2 h=2 n=32 valency=8 big_order=unknown degenerate=0
C1 valency=8 valency=8 pass
C2 connected=true connected=true pass
C3 transitive=true skipped:ambient_cap skipped
C4 arc_transitive=false,orbits=4 skipped:ambient_cap skipped
C5 arc_orbit=256 skipped:ambient_cap skipped
C6 module_rank=4 skipped:ambient_cap skipped
C7 rank=6 skipped:ambient_cap skipped
C8 rank>=4 skipped:ambient_cap skipped
C9 dims=1,2,3,4,3,2,1 skipped:ambient_cap skipped"""

GOLDEN_22_BOTH_CAPS = """\
family-certificate p=2 h=2 n=unknown valency=unknown big_order=unknown degenerate=0
C1 valency=8 skipped:vertex_cap skipped
C2 connected=true skipped:vertex_cap skipped
C3 transitive=true skipped:vertex_cap skipped
C4 arc_transitive=false,orbits=4 skipped:vertex_cap skipped
C5 arc_orbit=all skipped:vertex_cap skipped
C6 module_rank=4 skipped:ambient_cap skipped
C7 rank=6 skipped:vertex_cap skipped
C8 rank>=4 skipped:vertex_cap skipped
C9 dims=1,2,3,4,3,2,1 skipped:ambient_cap skipped"""


@pytest.mark.parametrize(
    "argv, exit_code, golden",
    [
        (["--p", "2", "--h", "2"], EXIT_OK, GOLDEN_T1_22),
        (
            ["--p", "2", "--h", "2", "--order-cap", "100"],
            EXIT_PARTIAL,
            GOLDEN_T1_22_ORDER_CAP,
        ),
        (["--p", "2", "--h", "1"], EXIT_FAIL, GOLDEN_T1_21),
    ],
)
def test_verify_t1_golden(capsys, argv, exit_code, golden):
    code, stdout, _ = run_cli(capsys, "verify-t1", *argv)
    assert code == exit_code
    assert mask_elapsed(stdout) == golden


@pytest.mark.parametrize(
    "caps, golden",
    [
        # the graph is over the cap: only the algebra claims C6 and C9 run
        (Caps(vertex_cap=10), GOLDEN_22_VERTEX_CAP),
        # the algebra is over the cap: only the graph claims C1 and C2 run
        (Caps(ambient_cap=4), GOLDEN_22_AMBIENT_CAP),
        # both fire: every group claim keeps the graph stage's reason
        (Caps(vertex_cap=10, ambient_cap=4), GOLDEN_22_BOTH_CAPS),
    ],
)
def test_verify_t1_golden_under_caps(caps, golden):
    report = verify_theorem1(ConstructionParams(2, 2, caps=caps))
    assert mask_elapsed(report.render()) == golden


# verify-t2 certificates of constructed members: e, the orders and every
# connection_gen line (the transversal representatives) pinned byte for byte

GOLDEN_T2_22 = """\
bound-certificate n=32 d=8 e=8
H_order=512
G_order=65536
G_alpha_order=2048
connection_gen 2 3 4 5 6 7 0 1 10 11 12 13 14 15 8 9 18 19 20 21 22 23 16 17 26 27 28 29 30 31 24 25
connection_gen 3 2 5 4 7 6 1 0 10 11 12 13 14 15 8 9 18 19 20 21 22 23 16 17 26 27 28 29 30 31 24 25
connection_gen 6 7 4 5 2 3 0 1 30 31 28 29 26 27 24 25 22 23 20 21 18 19 16 17 14 15 12 13 10 11 8 9
connection_gen 7 6 5 4 3 2 1 0 30 31 28 29 26 27 24 25 22 23 20 21 18 19 16 17 14 15 12 13 10 11 8 9
connection_gen 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 0 1 2 3 4 5 6 7
connection_gen 9 8 11 10 13 12 15 14 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 0 1 2 3 4 5 6 7
connection_gen 24 25 30 31 28 29 26 27 16 17 22 23 20 21 18 19 8 9 14 15 12 13 10 11 0 1 6 7 4 5 2 3
connection_gen 25 24 31 30 29 28 27 26 16 17 22 23 20 21 18 19 8 9 14 15 12 13 10 11 0 1 6 7 4 5 2 3
decomposition_ok=true
size_bound_ok=true
generation_ok=true
order_equality=false
"""

GOLDEN_T2_31 = """\
bound-certificate n=27 d=12 e=18
H_order=243
G_order=26244
G_alpha_order=972
connection_gen 3 4 5 6 7 8 0 1 2 12 13 14 15 16 17 9 10 11 21 22 23 24 25 26 18 19 20
connection_gen 4 5 3 7 8 6 1 2 0 12 13 14 15 16 17 9 10 11 21 22 23 24 25 26 18 19 20
connection_gen 5 3 4 8 6 7 2 0 1 13 14 12 16 17 15 10 11 9 21 22 23 24 25 26 18 19 20
connection_gen 6 7 8 0 1 2 3 4 5 15 16 17 9 10 11 12 13 14 24 25 26 18 19 20 21 22 23
connection_gen 7 8 6 1 2 0 4 5 3 15 16 17 9 10 11 12 13 14 24 25 26 18 19 20 21 22 23
connection_gen 8 6 7 2 0 1 5 3 4 16 17 15 10 11 9 13 14 12 24 25 26 18 19 20 21 22 23
connection_gen 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 0 1 2 3 4 5 6 7 8
connection_gen 10 11 9 13 14 12 16 17 15 18 19 20 21 22 23 24 25 26 0 1 2 3 4 5 6 7 8
connection_gen 11 9 10 14 12 13 17 15 16 19 20 18 22 23 21 25 26 24 0 1 2 3 4 5 6 7 8
connection_gen 18 19 20 21 22 23 24 25 26 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17
connection_gen 19 20 18 22 23 21 25 26 24 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17
connection_gen 20 18 19 23 21 22 26 24 25 1 2 0 4 5 3 7 8 6 9 10 11 12 13 14 15 16 17
decomposition_ok=true
size_bound_ok=true
generation_ok=true
order_equality=false
"""


@pytest.mark.parametrize(
    "p, h, golden", [(2, 2, GOLDEN_T2_22), (3, 1, GOLDEN_T2_31)], ids=["2-2", "3-1"]
)
def test_verify_t2_golden(tmp_path, capsys, p, h, golden):
    instance = round_trip_instance(tmp_path, capsys, p, h)
    code, stdout, _ = run_cli(capsys, "verify-t2", str(instance))
    assert code == EXIT_OK
    assert stdout == golden
