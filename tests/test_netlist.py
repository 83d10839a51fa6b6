"""Netlist text format: parse, serialize, errors, shipped files."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgqsim.netlist import (
    BUILTIN_NETLISTS,
    NetlistError,
    builtin_netlist,
    builtin_netlist_text,
    load,
    parse,
    save,
    serialize,
)
from wgqsim.params import ProtocolParams
from wgqsim.circuit import execute
from wgqsim.protocols import (
    build_heralded_z,
    build_n_qubit,
    build_three_qubit,
    build_two_qubit,
)

BUILDERS = {
    "klm2": build_two_qubit,
    "klm3": build_three_qubit,
    "klm5": lambda: build_n_qubit(5),
    "heralded_z": build_heralded_z,
}

MINIMAL = """\
circuit demo
emitters 1
modes 0 1
hwp mode=0 theta=45
mirror in=0 out=1
detect D1=(1,H) D2=(1,V)
"""


def test_round_trip_every_builder():
    for name, build in BUILDERS.items():
        c = build()
        assert parse(serialize(c)) == c


def test_serialize_is_idempotent():
    for build in BUILDERS.values():
        text = serialize(build())
        assert serialize(parse(text)) == text


def test_shipped_files_match_builders():
    for name, build in BUILDERS.items():
        assert builtin_netlist(name) == build()
        assert parse(builtin_netlist_text(name)) == build()


def test_minimal_circuit_defaults():
    c = parse(MINIMAL)
    assert c.input_mode == 0
    assert c.input_pol == "H"
    assert c.input_register == "+"
    res = execute(c, params=ProtocolParams(1))
    assert res.herald_probability() == pytest.approx(1.0, abs=1e-12)


def test_comments_and_separators():
    text = MINIMAL.replace("hwp mode=0 theta=45", "# tilt\nhwp mode=0 theta=45 ; mirror in=1 out=1")
    # the inline extra mirror routes 1 -> 1, legal no-op placement-wise
    c = parse(text)
    assert len(c.components) == 4


def test_load_save(tmp_path):
    p = tmp_path / "c.wgq"
    c = build_two_qubit()
    save(c, str(p))
    assert load(str(p)) == c


def check_error(text, needle, line=None):
    with pytest.raises(NetlistError) as info:
        parse(text)
    assert needle in str(info.value)
    if line is not None:
        assert info.value.line == line


def test_error_positions_and_messages():
    check_error("", "missing")
    check_error("circuit x\nemitters 1\nmodes 0\nbogus a=1\n", "bogus", line=4)
    check_error("circuit x\nemitters 1\nmodes 0\nhwp mode=0\n", "theta", line=4)
    check_error("circuit x\nemitters 1\nmodes 0\nhwp mode=0 theta=45 theta=46\ndetect D1=(0,H) D2=(0,V)\n", "duplicate", line=4)
    check_error("circuit x\nemitters 1\nmodes 0\nhwp mode=0 theta=45 color=red\n", "unknown", line=4)
    check_error("circuit x\nemitters 1\nmodes 0\ndetect D1=(0,H) D2=(0,V)\nhwp mode=0 theta=45\n", "last", line=5)
    check_error("circuit x\nemitters 1\nmodes 0\npbs (0,Q)->1\n", "route", line=4)
    check_error("circuit x\nemitters 1\nmodes 0\nscatter in=0 emitter=4 out=1 sink=s\ndetect D1=(1,H) D2=(1,V)\n", "emitter")
    check_error("circuit x\nemitters 1\nmodes 0 1\nhwp mode=0 theta=45\n", "detect")
    check_error("circuit x\nemitters 1\nmodes 0\natt mode=0 coeff=rnom^x sink=s\n", "coeff", line=4)


def test_error_column_points_at_token():
    bad = "circuit x\nemitters 1\nmodes 0\nhwp mode=0 theta=fast\n"
    with pytest.raises(NetlistError) as info:
        parse(bad)
    assert info.value.line == 4
    assert info.value.col == "hwp mode=0 theta=fast".index("theta=") + 1


def test_input_mode_error_points_at_its_token():
    line = "  input mode=x pol=H"
    bad = f"circuit x\nemitters 1\nmodes 0\n{line}\ndetect D1=(0,H) D2=(0,V)\n"
    with pytest.raises(NetlistError) as info:
        parse(bad)
    assert "input mode must be an integer, got 'x'" in str(info.value)
    assert (info.value.line, info.value.col) == (4, line.index("mode=") + 1)


def test_unknown_builtin_name():
    with pytest.raises(KeyError):
        builtin_netlist_text("klm99")


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.characters(codec="ascii"), max_size=300))
def test_parser_never_crashes(text):
    try:
        parse(text)
    except NetlistError:
        pass


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_parser_mutation_robustness(data):
    # corrupt one character of a valid file; only NetlistError may escape
    base = serialize(build_two_qubit())
    i = data.draw(st.integers(0, len(base) - 1))
    ch = data.draw(st.characters(codec="ascii"))
    mutated = base[:i] + ch + base[i + 1 :]
    try:
        parse(mutated)
    except NetlistError:
        pass
