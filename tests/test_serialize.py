"""Container format: bit-exact load/save cycles, section and meta handling."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from casetag.errors import ParseError
from casetag.nn import Container, Tensor, restore_params, store_params


def make_container():
    c = Container()
    c.meta["kind"] = "demo"
    c.meta["note"] = "value with spaces"
    c.sections["vocab"] = ["1\t97", "2\t32", "3\t935"]
    c.add_array("layer.W", np.arange(6, dtype=np.float64).reshape(2, 3))
    c.add_array("layer.b", np.array([0.25, -1.5]))
    return c


def test_save_load_save_is_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.ctr", tmp_path / "b.ctr"
    make_container().save(str(p1))
    Container.load(str(p1)).save(str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_load_restores_everything(tmp_path):
    p = tmp_path / "m.ctr"
    make_container().save(str(p))
    c = Container.load(str(p))
    assert c.meta == {"kind": "demo", "note": "value with spaces"}
    assert c.sections["vocab"] == ["1\t97", "2\t32", "3\t935"]
    assert c.arrays["layer.W"].shape == (2, 3)
    assert np.allclose(c.arrays["layer.W"], np.arange(6).reshape(2, 3))
    assert c.arrays["layer.b"].dtype == np.dtype("<f4")


def test_store_restore_params_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    c = Container()
    store_params(c, [("w", w), ("b", b)])
    p = tmp_path / "p.ctr"
    c.save(str(p))
    w2 = Tensor(np.zeros((3, 2)), requires_grad=True)
    b2 = Tensor(np.zeros(3), requires_grad=True)
    restore_params(Container.load(str(p)), [("w", w2), ("b", b2)])
    # float32 storage: equal after casting the originals down
    assert np.array_equal(w2.data, w.data.astype(np.float32).astype(np.float64))
    assert np.array_equal(b2.data, b.data.astype(np.float32).astype(np.float64))


def test_restore_rejects_missing_and_misshapen(tmp_path):
    c = Container()
    c.add_array("w", np.ones((2, 2)))
    p = tmp_path / "x.ctr"
    c.save(str(p))
    loaded = Container.load(str(p))
    with pytest.raises(ParseError):
        restore_params(loaded, [("missing", Tensor(np.zeros(2), requires_grad=True))])
    with pytest.raises(ParseError):
        restore_params(loaded, [("w", Tensor(np.zeros((3, 2)), requires_grad=True))])


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.ctr"
    p.write_bytes(b"who knows\n")
    with pytest.raises(ParseError):
        Container.load(str(p))


def test_load_rejects_truncated_payload(tmp_path):
    p = tmp_path / "t.ctr"
    make_container().save(str(p))
    data = p.read_bytes()
    p.write_bytes(data[:-4])
    with pytest.raises(ParseError):
        Container.load(str(p))


def _fuzzed(raw: bytes, data) -> bytes:
    """raw with one header line, one count or dimension, or one byte range
    replaced, or cut short."""
    header, _, blob = raw.partition(b"\nbinary\n")
    lines = header.split(b"\n")
    kind = data.draw(st.sampled_from(["line", "number", "bytes", "cut"]))
    if kind == "line":
        lines[data.draw(st.integers(0, len(lines) - 1))] = data.draw(st.binary(max_size=40))
    elif kind == "number":
        i = data.draw(st.sampled_from(
            [i for i, line in enumerate(lines) if line.startswith((b"section ", b"param "))]))
        number = st.integers(-2 ** 70, 2 ** 70).map(str)
        value = data.draw(st.one_of(number, st.lists(number, max_size=4).map(",".join),
                                    st.text(max_size=12)))
        lines[i] = lines[i].rpartition(b" ")[0] + b" " + value.encode("utf-8")
    else:
        start = data.draw(st.integers(0, len(raw)))
        if kind == "cut":
            return raw[:start]
        end = data.draw(st.integers(start, min(len(raw), start + 8)))
        return raw[:start] + data.draw(st.binary(max_size=8)) + raw[end:]
    return b"\n".join(lines) + b"\nbinary\n" + blob


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_fuzzed_header_raises_only_parse_error(tmp_path, data):
    p = tmp_path / "m.ctr"
    make_container().save(str(p))
    p.write_bytes(_fuzzed(p.read_bytes(), data))
    try:
        Container.load(str(p))
    except ParseError:
        pass


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n")),
                max_size=6))
def test_section_text_round_trips(tmp_path, lines):
    p1, p2 = tmp_path / "a.ctr", tmp_path / "b.ctr"
    c = make_container()
    c.sections["text"] = lines
    c.save(str(p1))
    loaded = Container.load(str(p1))
    assert loaded.sections == c.sections
    loaded.save(str(p2))
    assert p1.read_bytes() == p2.read_bytes()
