import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noclink.energy import (
    Capacitance3D,
    TechnologyParams,
    normalized_energy,
    template_2d_bus,
    template_3d_tsv,
)
from noclink.oracle import (
    IDLE,
    LinkTrace,
    TraceError,
    exact_energy,
    exact_switching,
    replay_link_protocol,
    write_link_protocol,
)
from noclink.streams import (
    BLOCK,
    StreamSpec,
    SwitchingMatrix,
    generate_stream,
    multiplex_streams,
    word_bits,
)

TECH = TechnologyParams(vdd=1.1, clock_period=1e-9)


def trace(words, types, width):
    """The flits of a per-cycle record, IDLE on idle cycles."""
    return LinkTrace.from_cycles(np.array(words, dtype=np.uint64), np.array(types), width)


# --- per-cycle references -----------------------------------------------------


def per_cycle(trace):
    """The per-cycle record of a trace: each cycle's type (IDLE when no
    flit arrives) and the word held on the wires, all-zeros before the
    first flit."""
    types = np.full(len(trace), IDLE, dtype=np.int64)
    types[trace.cycles] = trace.types
    words = np.zeros(len(trace), dtype=np.uint64)
    words[trace.cycles] = trace.words
    active = types != IDLE
    last = np.maximum.accumulate(np.where(active, np.arange(len(trace)), -1))
    held = np.where(last >= 0, words[np.maximum(last, 0)], np.uint64(0))
    return types, held


def reference_switching(trace):
    """``exact_switching`` over every cycle pair of the held words."""
    b = word_bits(per_cycle(trace)[1], trace.width)
    p = b.mean(axis=0)
    if len(trace) < 2:
        return SwitchingMatrix(np.zeros((trace.width, trace.width))), p
    d = np.diff(b, axis=0).astype(np.float64)
    return SwitchingMatrix.from_products((d.T @ d) / (len(trace) - 1)), p


def reference_energy_total(trace, cap):
    """``exact_energy``'s normalized total over every cycle pair."""
    b = word_bits(per_cycle(trace)[1], trace.width)
    p = b.mean(axis=0)
    c = cap.ct0 + cap.dct * (p[:, None] + p[None, :]) if isinstance(cap, Capacitance3D) else cap.c
    if len(trace) < 2:
        return 0.0
    d = np.diff(b, axis=0).astype(np.float64)
    t = SwitchingMatrix.from_products(d.T @ d).t
    total = float(np.sum(np.diag(c) * np.diag(t)))
    c_off = c.copy()
    np.fill_diagonal(c_off, 0.0)
    return total + float(np.sum(t * c_off))


@st.composite
def per_cycle_records(draw):
    """A width of 1-64 bits, per-cycle words and types with an idle share
    of 0-1, and sorted cut points that split the record into chunks."""
    width = draw(st.integers(1, 64))
    length = draw(st.integers(1, 300))
    idle_share = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 2**width, length, dtype=np.uint64)
    types = np.where(rng.random(length) < idle_share, IDLE, rng.integers(0, 3, length))
    cuts = sorted(draw(st.lists(st.integers(0, length), max_size=8)))
    return width, words, types, cuts


class TestExactSwitching:
    def test_every_cycle_toggles(self):
        t, _ = exact_switching(trace([0b00, 0b11, 0b00], [0, 0, 0], 2))
        assert np.allclose(np.diag(t.t), 1.0)

    def test_idle_holds_value(self):
        # one switching event averaged over 3 cycle pairs
        t, _ = exact_switching(trace([5, 0, 0, 6], [0, IDLE, IDLE, 0], 4))
        held_toggles = np.diag(t.t) * 3
        assert held_toggles.sum() == pytest.approx(bin(5 ^ 6).count("1"))

    def test_initial_hold_is_zero(self):
        t, p = exact_switching(trace([0, 0b11], [IDLE, 0], 2))
        assert np.allclose(np.diag(t.t), 1.0)  # 0b00 -> 0b11
        assert np.allclose(p, 0.5)

    def test_concatenation_property(self):
        rng = np.random.default_rng(0)
        w1, w2 = rng.integers(0, 16, 50), rng.integers(0, 16, 70)
        t1, _ = exact_switching(trace(w1, [0] * 50, 4))
        t2, _ = exact_switching(trace(w2, [0] * 70, 4))
        tc, _ = exact_switching(trace(np.concatenate([w1, w2]), [0] * 120, 4))
        junction = np.zeros((4, 4))
        db = np.array([(int(w2[0]) >> i & 1) - (int(w1[-1]) >> i & 1) for i in range(4)], float)
        corr = np.outer(db, db)
        junction = np.diag(corr)[:, None] - corr
        np.fill_diagonal(junction, np.diag(corr))
        expect = (49 * t1.t + 69 * t2.t + junction) / 119
        assert np.allclose(tc.t, expect)


class TestLinkTrace:
    def test_len_is_the_cycles_covered(self):
        tr = trace([0, 5, 0, 0], [IDLE, 1, IDLE, IDLE], 4)
        assert len(tr) == 4
        assert tr.cycles.tolist() == [1]
        assert tr.types.tolist() == [1] and tr.words.tolist() == [5]

    @pytest.mark.parametrize("cycles, types, words, length, width", [
        ([0, 1], [0], [0, 0], 3, 4),          # unequal column lengths
        ([1, 1], [0, 0], [0, 0], 3, 4),       # a repeated cycle
        ([2, 1], [0, 0], [0, 0], 3, 4),       # descending cycles
        ([-1], [0], [0], 3, 4),               # before the first cycle
        ([3], [0], [0], 3, 4),                # at the end of the trace
        ([0], [-1], [0], 3, 4),               # an idle marker as a flit type
        ([0], [0], [16], 3, 4),               # a word wider than the link
        ([], [], [], 0, 4),                   # no cycle at all
        ([0], [0], [0], 3, 0),                # no wire
        ([0], [0], [0], 3, 65),               # wider than a word
    ])
    def test_validation(self, cycles, types, words, length, width):
        with pytest.raises(TraceError):
            LinkTrace(cycles, types, words, length=length, width=width)

    def test_simulated_columns_must_match_too(self):
        with pytest.raises(TraceError):
            LinkTrace([0, 1], [0, 0], [0, 0], [0, 0], [0], length=2, width=4)


class TestAgainstPerCycleReference:
    @given(per_cycle_records())
    @settings(max_examples=200, deadline=None)
    def test_held_runs_equal_every_cycle(self, case):
        # chunks of the record, converted one at a time and joined as a run
        # joins its chunks, give the trace of the whole record
        width, words, types, cuts = case
        bounds = [0, *cuts, types.size]
        chunks = [(lo, trace(words[lo:hi], types[lo:hi], width))
                  for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
        tr = LinkTrace(np.concatenate([c.cycles + lo for lo, c in chunks]),
                       np.concatenate([c.types for _, c in chunks]),
                       np.concatenate([c.words for _, c in chunks]),
                       length=types.size, width=width)
        whole = trace(words, types, width)
        for column in ("cycles", "types", "words"):
            assert np.array_equal(getattr(tr, column), getattr(whole, column))

        t, p = exact_switching(tr)
        t_ref, p_ref = reference_switching(tr)
        assert np.array_equal(t.t, t_ref.t)
        assert np.array_equal(p, p_ref)
        for cap in (template_2d_bus(width, 100.0, 37.0),
                    template_3d_tsv(1, width, 40.0, -2.0, 120.0, -6.0)):
            rep = exact_energy(tr, cap, TECH)
            assert rep.normalized_total_af == reference_energy_total(tr, cap)
            assert np.array_equal(rep.p, p_ref)
            assert rep.cycles == types.size
            assert rep.active_cycles == int((types != IDLE).sum())


class TestOnePricingSum:
    @given(per_cycle_records())
    @settings(max_examples=200, deadline=None)
    def test_oracle_prices_through_normalized_energy(self, case):
        width, words, types, _ = case
        tr = trace(words, types, width)
        products, p = tr.held_products
        t = SwitchingMatrix.from_products(products)
        for cap in (template_2d_bus(width, 100.0, 37.0),
                    template_3d_tsv(1, width, 40.0, -2.0, 120.0, -6.0)):
            assert exact_energy(tr, cap, TECH).normalized_total_af == normalized_energy(t, cap, p)


class TestExactEnergy:
    def test_constant_trace(self):
        rep = exact_energy(trace([7, 7, 7], [0, 0, 0], 4), template_2d_bus(4, 100.0, 50.0), TECH)
        assert rep.total_fj == 0.0

    def test_single_full_transition_diagonal_only(self):
        cap = template_2d_bus(4, 100.0, 0.0)
        rep = exact_energy(trace([0, 15], [0, 0], 4), cap, TECH)
        assert rep.normalized_total_af == pytest.approx(400.0)
        assert rep.total_fj == pytest.approx(400.0 * 1e-3 * 1.1**2 / 2)

    def test_identity_with_exact_switching(self):
        a = generate_stream(StreamSpec("uniform", 8, 20_000, seed=1))
        b = generate_stream(StreamSpec("gaussian", 8, 20_000, sigma=16.0, rho=0.9, seed=2))
        mux, types = multiplex_streams([a, b], 0.3, seed=3)
        tr = LinkTrace.from_cycles(mux.words, types, 8)
        cap = template_2d_bus(8, 100.0, 60.0, 2)
        rep = exact_energy(tr, cap, TECH)
        t, _ = exact_switching(tr)
        expect = normalized_energy(t, cap) * (len(tr) - 1)
        assert rep.normalized_total_af == pytest.approx(expect, rel=1e-9)

    def test_3d_uses_global_probabilities(self):
        tr = trace([0, 15, 0, 15], [0, 0, 0, 0], 4)
        cap = template_3d_tsv(2, 2, 0.0, 0.0, 100.0, -20.0)
        rep = exact_energy(tr, cap, TECH)
        # p = 0.5 per bit -> diagonal C = 100 - 20*(1.0) = 80 aF, 4 bits, 3 transitions
        assert rep.normalized_total_af == pytest.approx(3 * 4 * 80.0)

    def test_width_mismatch(self):
        with pytest.raises(TraceError):
            exact_energy(trace([0], [0], 4), template_2d_bus(8, 1.0, 1.0), TECH)

    def test_held_products_computed_once_and_shared_read_only(self):
        tr = trace([0, 15, 3, 3], [0, IDLE, 1, 0], 4)
        products, p = tr.held_products
        exact_energy(tr, template_2d_bus(4, 100.0, 50.0), TECH)
        assert tr.held_products[0] is products and tr.held_products[1] is p
        assert not products.flags.writeable and not p.flags.writeable

    def test_held_probabilities_exact_past_float32(self):
        # runs of 2^24 + 1 and 2^24 + 2 cycles, which float32 cannot hold
        tr = LinkTrace([0, 2**24 + 1], [0, 0], [1, 3], length=2**25 + 3, width=2)
        runs = np.array([2**24 + 1, 2**24 + 2], dtype=np.int64)
        held = runs @ np.array([[1, 0], [1, 1]], dtype=np.int64)
        assert np.array_equal(tr.held_products[1], held / tr.length)
        # flits at cycles 0 and 2^25 - 1: the first word is held for 2^25 - 1
        # cycles, an odd count past 2^24 that float32 rounds to 2^25
        tr = LinkTrace([0, 2**25 - 1], [0, 0], [0b1011, 0b0110], length=2**25, width=4)
        assert_held_exact(tr)
        assert tr.held_products[1][0] == (2**25 - 1) / 2**25


def int64_held_sums(trace):
    """The held products and p·length in int64: Σ ddᵀ over the bit
    differences of consecutive held words, and Σ run·bits, with all-zeros
    held before the first flit."""
    lead = int(not trace.cycles.size or trace.cycles[0] > 0)
    starts = np.concatenate((np.zeros(lead, dtype=np.int64), trace.cycles))
    words = np.concatenate((np.zeros(lead, dtype=np.uint64), trace.words))
    runs = np.diff(np.append(starts, trace.length))
    bits = word_bits(words, trace.width).astype(np.int64)
    d = np.diff(bits, axis=0)
    return d.T @ d, runs @ bits


def assert_held_exact(trace):
    products, p = trace.held_products
    products_ref, counts_ref = int64_held_sums(trace)
    assert np.array_equal(products, products_ref)
    assert np.array_equal(p, counts_ref / trace.length)


class TestHeldBlocks:
    """``held_products`` sums blocks of held words, in float32 below 2^24
    cycles; each sum must equal the int64 one bit for bit."""

    def test_trace_longer_than_one_block(self):
        rng = np.random.default_rng(5)
        n = 2 * BLOCK + 123
        cycles = np.sort(rng.choice(5 * n, n, replace=False)) + 1  # idle first cycle
        tr = LinkTrace(cycles, np.zeros(n), rng.integers(0, 2**17, n, dtype=np.uint64),
                       length=5 * n + 1, width=17)
        assert_held_exact(tr)

    def test_block_boundary_inside_a_run(self):
        # held word BLOCK - 1, the last of the first block, idles for 1000
        # cycles, and one word is held from there into the next block
        rng = np.random.default_rng(6)
        n = BLOCK + 50
        gaps = np.ones(n, dtype=np.int64)
        gaps[BLOCK] = 1001
        words = rng.integers(0, 2**16, n, dtype=np.uint64)
        words[BLOCK - 10:BLOCK + 10] = 0xBEEF
        tr = LinkTrace(np.cumsum(gaps) - 1, np.zeros(n), words, length=int(gaps.sum()) + 7,
                       width=16)
        assert_held_exact(tr)

    def test_many_runs_past_float32_integers(self):
        # 6000 runs, none of 2^24 cycles, over 2^25 + 2^19 cycles: cycle 2^24
        # falls inside the run of flit 4099, and a float32 sum would round
        rng = np.random.default_rng(7)
        cycles = np.concatenate((np.sort(rng.choice(2**24 - 2**19, 4100, replace=False)),
                                 2**24 + 2**19 + np.sort(rng.choice(2**24, 1900, replace=False))))
        tr = LinkTrace(cycles, np.zeros(cycles.size), rng.integers(0, 2**9, cycles.size,
                       dtype=np.uint64), length=2**25 + 2**19 + 5, width=9)
        assert_held_exact(tr)

    @given(st.integers(1, 64), st.integers(0, 200), st.integers(1, 2**26),
           st.sampled_from((1, 2, 3, 7, BLOCK)), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_any_block_size_is_exact(self, width, flits, length, block, seed):
        rng = np.random.default_rng(seed)
        cycles = np.sort(rng.choice(length, min(flits, length), replace=False))
        words = rng.integers(0, 2**width, cycles.size, dtype=np.uint64)
        tr = LinkTrace(cycles, np.zeros(cycles.size), words, length=length, width=width)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("noclink.oracle.BLOCK", block)
            assert_held_exact(tr)


def protocol_reference(trace) -> bytes:
    """The protocol format written one record at a time."""
    types, held = per_cycle(trace)
    return "".join(
        f"{cycle},{'IDLE' if t < 0 else t},{int(held[cycle]):x}\n"
        for cycle, t in enumerate(types.tolist())
    ).encode()


def replay_reference(path, width: int) -> LinkTrace:
    """``replay_link_protocol`` one line at a time, in text mode."""
    words: list[int] = []
    types: list[int] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise TraceError(f"{path}:{lineno}: malformed protocol record")
            cycle, tag, hexword = parts
            if cycle != str(len(words)):
                raise TraceError(
                    f"{path}:{lineno}: record of cycle {cycle!r}, expected {len(words)}")
            if tag == "IDLE":
                t = IDLE
            elif tag.isdecimal():
                t = int(tag)
            else:
                raise TraceError(f"{path}:{lineno}: type tag {tag!r} is neither IDLE"
                                 " nor a non-negative integer")
            try:
                word = int(hexword, 16)
            except ValueError as exc:
                raise TraceError(f"{path}:{lineno}: malformed protocol record") from exc
            words.append(word)
            types.append(t)
    if not words:
        raise TraceError(f"{path}: empty protocol file")
    try:
        words = np.asarray(words, dtype=np.uint64)
    except OverflowError as exc:
        raise TraceError(f"{path}: a protocol word is negative or wider than 64 bits") from exc
    types = np.asarray(types, dtype=np.int64)
    trace = LinkTrace.from_cycles(words, types, width)
    held = per_cycle(trace)[1]
    bad = np.flatnonzero((types == IDLE) & (words != held))
    if bad.size:
        c = int(bad[0])
        raise TraceError(f"{path}: IDLE record of cycle {c} has word {int(words[c]):x},"
                         f" not the held word {int(held[c]):x}")
    return trace


protocol_rows = st.integers(1, 64).flatmap(lambda width: st.lists(
    st.tuples(st.one_of(st.just(IDLE), st.integers(0, 40)), st.integers(0, 2**width - 1)),
    min_size=1, max_size=150,
).map(lambda rows: (width, rows)))

# bytes that keep a mutated file close to the grammar, and any byte at all
protocol_bytes = st.one_of(st.sampled_from(b"0123456789abcdefABCDEFIDLEx_-+ ,\r\n\t"),
                           st.integers(0, 255))


@st.composite
def protocol_texts(draw):
    """A written protocol file, possibly with uppercase hex, CRLF line
    ends, blank lines and no final line end, and whether some of its
    bytes were then substituted, inserted or deleted."""
    width, rows = draw(protocol_rows)
    tr = trace([w for _, w in rows], [t for t, _ in rows], width)
    lines = protocol_reference(tr).splitlines(keepends=True)
    if draw(st.booleans()):
        lines = [line.upper() for line in lines]  # uppercase hex digits
    if draw(st.booleans()):
        lines = [line.replace(b"\n", b"\r\n") for line in lines]
    for at in sorted(draw(st.lists(st.integers(0, len(lines)), max_size=3)), reverse=True):
        lines.insert(at, draw(st.sampled_from([b"\n", b"\r\n"])))
    text = bytearray(b"".join(lines))
    if draw(st.booleans()):
        text = text.rstrip(b"\r\n")
    mutations = draw(st.integers(0, 3))
    for _ in range(mutations):
        kind = draw(st.sampled_from(["substitute", "insert", "delete"]))
        at = draw(st.integers(0, len(text)))
        if kind == "insert":
            text.insert(at, draw(protocol_bytes))
        elif at < len(text):
            if kind == "substitute":
                text[at] = draw(protocol_bytes)
            else:
                del text[at]
    return width, bytes(text), mutations > 0


class TestProtocol:
    @given(
        st.integers(1, 64).flatmap(lambda width: st.lists(
            st.tuples(st.integers(-1, 40), st.integers(0, 2**width - 1)),
            min_size=1, max_size=150,
        ).map(lambda rows: (width, rows)))
    )
    @settings(max_examples=150, deadline=None)
    def test_writer_matches_record_by_record_format(self, tmp_path_factory, case):
        width, rows = case
        tr = trace([w for _, w in rows], [t for t, _ in rows], width)
        path = tmp_path_factory.mktemp("proto") / "link.protocol"
        write_link_protocol(path, tr)
        assert path.read_bytes() == protocol_reference(tr)

    def test_roundtrip_with_idles(self, tmp_path):
        tr = trace([3, 0, 0, 9, 12], [1, IDLE, IDLE, 0, 2], 4)
        path = tmp_path / "link.protocol"
        write_link_protocol(path, tr)
        back = replay_link_protocol(path, 4)
        assert len(back) == 5
        assert np.array_equal(per_cycle(back)[0], per_cycle(tr)[0])
        assert np.array_equal(per_cycle(back)[1], per_cycle(tr)[1])

    @given(
        st.integers(1, 64).flatmap(lambda width: st.lists(
            st.tuples(st.integers(-1, 40), st.integers(0, 2**width - 1)),
            min_size=1, max_size=150,
        ).map(lambda rows: (width, rows)))
    )
    @settings(max_examples=100, deadline=None)
    def test_written_files_replay_unchanged(self, tmp_path_factory, case):
        width, rows = case
        tr = trace([w for _, w in rows], [t for t, _ in rows], width)
        path = tmp_path_factory.mktemp("proto") / "link.protocol"
        write_link_protocol(path, tr)
        back = replay_link_protocol(path, width)
        for name in ("cycles", "types", "words"):
            assert np.array_equal(getattr(back, name), getattr(tr, name))
        assert len(back) == len(tr)

    @pytest.mark.parametrize("text", [
        "0,IDLE,5\n1,0,5\n",  # before the first flit the link holds zero
        "0,0,5\n1,IDLE,5\n2,IDLE,6\n",  # afterwards it holds the last flit's word
        "0,0,5\n1,1,7\n2,IDLE,5\n",
    ])
    def test_idle_record_must_hold_the_held_word(self, tmp_path, text):
        path = tmp_path / "link.protocol"
        path.write_text(text)
        with pytest.raises(TraceError, match="IDLE record"):
            replay_link_protocol(path, 4)

    @pytest.mark.parametrize("tag", ["-1", "+1"])
    def test_type_tag_is_idle_or_non_negative_decimal(self, tmp_path, tag):
        path = tmp_path / "link.protocol"
        path.write_text(f"0,0,5\n1,{tag},5\n")
        with pytest.raises(TraceError, match="type tag"):
            replay_link_protocol(path, 4)

    @pytest.mark.parametrize("word", ["-1", "1" + "0" * 16])
    def test_word_outside_64_bits(self, tmp_path, word):
        path = tmp_path / "link.protocol"
        path.write_text(f"0,0,{word}\n")
        with pytest.raises(TraceError, match="64 bits"):
            replay_link_protocol(path, 64)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.protocol"
        path.write_text("")
        with pytest.raises(TraceError):
            replay_link_protocol(path, 4)

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "bad.protocol"
        path.write_text("0,zap\n")
        with pytest.raises(TraceError):
            replay_link_protocol(path, 4)

    def test_exact_switching_consistent_after_roundtrip(self, tmp_path):
        a = generate_stream(StreamSpec("uniform", 8, 500, seed=4))
        types = np.array([0 if i % 3 else IDLE for i in range(500)])
        tr = LinkTrace.from_cycles(a.words, types, 8)
        path = tmp_path / "p.protocol"
        write_link_protocol(path, tr)
        back = replay_link_protocol(path, 8)
        t1, p1 = exact_switching(tr)
        t2, p2 = exact_switching(back)
        assert np.allclose(t1.t, t2.t)
        assert np.allclose(p1, p2)
        assert back.cycles.size == tr.cycles.size


class TestProtocolReader:
    """``replay_link_protocol`` against the line loop ``replay_reference``."""

    @given(protocol_texts())
    @settings(max_examples=400, deadline=None)
    def test_accepts_only_what_the_loop_reads_alike(self, tmp_path_factory, case):
        width, text, mutated = case
        path = tmp_path_factory.mktemp("proto") / "link.protocol"
        path.write_bytes(text)
        try:
            back = replay_link_protocol(path, width)
        except TraceError:
            assert mutated  # written files, CRLF and blank lines always read
            return
        ref = replay_reference(path, width)
        for name in ("cycles", "types", "words"):
            assert np.array_equal(getattr(back, name), getattr(ref, name))
        assert len(back) == len(ref)

    @pytest.mark.parametrize("text", [
        " 0,0,5\n",  # padded fields
        "0,0,5 \n",
        "0,0, 5\n",
        "0,0,5\n \n1,0,5\n",  # a line of blanks
        "0,0,0x5\n",
        "0,0,5_0\n",
        "0,0,+5\n",
        "0,0,-0\n",
        "0,\u0663,5\n",  # non-ASCII digits
        "0,0,\u0665\n",
        "0,0,5\r1,0,5\n",  # a lone CR as line end
        "0,0," + "0" * 16 + "5\n",  # over 16 hex digits
    ])
    def test_rejects_forms_the_loop_let_through(self, tmp_path, text):
        path = tmp_path / "link.protocol"
        path.write_bytes(text.encode())
        replay_reference(path, 64)
        with pytest.raises(TraceError):
            replay_link_protocol(path, 64)

    @pytest.mark.parametrize("text, message", [
        ("0,0,5\r\n\r\n1,0,zz\r\n", r":3: malformed protocol record"),
        ("0,0,5\n1,0\n", r":2: malformed protocol record"),
        ("0,0,5\n\n01,0,5\n", r":3: record of cycle '01', expected 1"),
        ("".join(f"{i},0,5\n" for i in range(12)).replace("\n1,", "\n01,"),
         r":2: record of cycle '01', expected 1"),
        ("0,0,5\n1,0,5,7\n", r":2: malformed protocol record"),
        ("0,0,5\n1,0,5\n2,05\n", r":3: malformed protocol record"),
        ("0,0,5\n1,x,5\n", r":2: type tag 'x'"),
        ("0,0,5\n1," + "1" * 19 + ",5\n", r":2: type tag"),
        ("0,0,5\n1,0,-5\n", r":2: protocol word '-5' is negative or wider than 64 bits"),
        ("0,0,5\n\n1,IDLE,6\n", r":3: IDLE record of cycle 1 has word 6, not the held word 5"),
    ])
    def test_errors_name_the_first_bad_line(self, tmp_path, text, message):
        path = tmp_path / "link.protocol"
        path.write_text(text)
        with pytest.raises(TraceError, match=message):
            replay_link_protocol(path, 4)

    def test_last_line_end_is_optional(self, tmp_path):
        path = tmp_path / "link.protocol"
        path.write_bytes(b"0,0,5\r\n1,IDLE,5")
        back = replay_link_protocol(path, 4)
        assert len(back) == 2 and back.words.tolist() == [5]


def test_writer_crosses_digit_counts(tmp_path):
    # cycles, tags and words on both sides of each digit-count boundary
    cycles = sorted({c for k in range(6) for c in (10**k - 1, 10**k)})
    tags = [0, 9, 10, 99, 100, 999, 1000, 9999, 10_000]
    words = [0, 1, 15, 16, 255, 256, 2**32 - 1, 2**32, 2**60 - 1, 2**60, 2**64 - 1]
    rows = [(tags[i % len(tags)], words[i % len(words)]) for i in range(len(cycles))]
    tr = LinkTrace(cycles, [t for t, _ in rows], [w for _, w in rows],
                   length=cycles[-1] + 1, width=64)
    assert len(tr) == 100_001
    path = tmp_path / "link.protocol"
    write_link_protocol(path, tr)
    assert path.read_bytes() == protocol_reference(tr)
    back = replay_link_protocol(path, 64)
    for name in ("cycles", "types", "words"):
        assert np.array_equal(getattr(back, name), getattr(tr, name))
