"""The pre-resolved cycle model against the per-call oracle.

Both models are fed the same instruction streams — Hypothesis-drawn shapes
with random memory granules and taken flags, and every static instruction
of the bfs FERRUM and DME binaries — and must agree on ``cycles`` after
every instruction.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm.instructions import ins
from repro.asm.operands import Imm, LabelRef, Mem, Reg
from repro.asm.registers import get_register
from repro.machine.timing import Port, TimingConfig, TimingModel, port_of

from tests.machine.timing_oracle import OracleTimingModel, granules

_GPRS = ("rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp")
_GPR32 = {"rax": "eax", "rbx": "ebx", "rcx": "ecx", "rdx": "edx",
          "rsi": "esi", "rdi": "edi", "rbp": "ebp", "rsp": "esp"}


def _r(name):
    return Reg(get_register(name))


def _mem(base, index=None):
    return Mem(disp=-8, base=get_register(base),
               index=get_register(index) if index else None,
               scale=8 if index else 1)


#: Instruction shapes: each builds one instruction from two GPR roots and a
#: vector index. Covers every port, latency class and implicit effect the
#: model distinguishes (flag readers/writers, stack moves, implicit
#: idiv/convert registers, read-modify-write vector destinations).
_SHAPES = (
    lambda a, b, v: ins("addq", Imm(1), _r(a)),
    lambda a, b, v: ins("addq", _r(a), _r(b)),
    lambda a, b, v: ins("subl", _r(_GPR32[a]), _r(_GPR32[b])),
    lambda a, b, v: ins("imulq", _r(a), _r(b)),
    lambda a, b, v: ins("shlq", Imm(3), _r(a)),
    lambda a, b, v: ins("negq", _r(a)),
    lambda a, b, v: ins("notq", _r(a)),
    lambda a, b, v: ins("movq", _mem(a), _r(b)),
    lambda a, b, v: ins("movq", _r(a), _mem(b)),
    lambda a, b, v: ins("movq", _mem(a, b), _r(a)),
    lambda a, b, v: ins("movl", Imm(7), _mem(b)),
    lambda a, b, v: ins("movslq", _mem(a), _r(b)),
    lambda a, b, v: ins("movzbl", _mem(a), _r(_GPR32[b])),
    lambda a, b, v: ins("leaq", _mem(a, b), _r(b)),
    lambda a, b, v: ins("cmpq", _r(a), _r(b)),
    lambda a, b, v: ins("testl", _r(_GPR32[a]), _r(_GPR32[a])),
    lambda a, b, v: ins("sete", _r("al")),
    lambda a, b, v: ins("setl", _r("cl")),
    lambda a, b, v: ins("jne", LabelRef("x")),
    lambda a, b, v: ins("jmp", LabelRef("x")),
    lambda a, b, v: ins("call", LabelRef("f")),
    lambda a, b, v: ins("retq"),
    lambda a, b, v: ins("pushq", _r(a)),
    lambda a, b, v: ins("popq", _r(b)),
    lambda a, b, v: ins("idivl", _r(_GPR32[a])),
    lambda a, b, v: ins("idivq", _r(a)),
    lambda a, b, v: ins("cltq"),
    lambda a, b, v: ins("cltd"),
    lambda a, b, v: ins("cqto"),
    lambda a, b, v: ins("movq", _r(a), _r(f"xmm{v}")),
    lambda a, b, v: ins("vmovq", _r(f"xmm{v}"), _r(b)),
    lambda a, b, v: ins("pinsrq", Imm(1), _r(a), _r(f"xmm{v}")),
    lambda a, b, v: ins("pextrq", Imm(1), _r(f"xmm{v}"), _r(b)),
    lambda a, b, v: ins("vinserti128", Imm(1), _r(f"xmm{v}"),
                        _r(f"ymm{v}"), _r("ymm3")),
    lambda a, b, v: ins("vpxor", _r(f"ymm{v}"), _r("ymm3"), _r("ymm2")),
    lambda a, b, v: ins("vptest", _r("ymm2"), _r("ymm2")),
    lambda a, b, v: ins("nop"),
)

#: Shapes grouped by execution port: single-port streams saturate that
#: port's units, which is where the unit choice on a tie decides timing.
_SHAPES_BY_PORT = {}
for _shape in _SHAPES:
    _SHAPES_BY_PORT.setdefault(port_of(_shape("rax", "rbx", 0)),
                               []).append(_shape)
_PORTS = sorted(_SHAPES_BY_PORT, key=lambda port: port.value)

_GRANULES = st.lists(st.integers(0, 12), max_size=3)

_STEP = st.tuples(
    st.integers(0, len(_SHAPES) - 1),
    st.sampled_from(_GPRS),
    st.sampled_from(_GPRS),
    st.integers(0, 3),
    _GRANULES,
    _GRANULES,
    st.booleans(),
)

#: Raw ``(addr, size)`` accesses; small addresses force granule collisions
#: and sizes up to 32 bytes span several granules (vector traffic).
_ACCESSES = st.lists(
    st.tuples(st.integers(0, 96), st.sampled_from([0, 1, 2, 4, 8, 16, 32])),
    max_size=2,
)

_CONFIG_LIST = [
    TimingConfig(),
    TimingConfig(fetch_width=1, rob_size=4, taken_branch_penalty=0),
    TimingConfig(rob_size=8, latency_load=5, latency_idiv=7,
                 taken_branch_penalty=4,
                 ports={Port.INT: 3, Port.VEC: 1, Port.LOAD: 2,
                        Port.STORE: 2, Port.BRANCH: 2}),
]
_CONFIGS = st.sampled_from(_CONFIG_LIST)

_FUZZ = settings(max_examples=60, deadline=None)


def _granules(accesses):
    out = []
    for addr, size in accesses:
        out.extend(granules(addr, size))
    return out


class TestHypothesisStreams:
    @_FUZZ
    @given(_CONFIGS, st.lists(_STEP, min_size=1, max_size=80))
    def test_observe_matches_oracle(self, config, steps):
        oracle = OracleTimingModel(config)
        model = TimingModel(config)
        for shape, a, b, v, reads, writes, taken in steps:
            instr = _SHAPES[shape](a, b, v)
            oracle.observe(instr, reads, writes, taken)
            model.observe(instr, reads, writes, taken)
            assert model.cycles == oracle.cycles
        assert model.instructions == oracle.instructions

    @_FUZZ
    @given(_CONFIGS, st.lists(
        st.tuples(st.integers(0, len(_SHAPES) - 1), st.sampled_from(_GPRS),
                  st.sampled_from(_GPRS), st.integers(0, 3), _ACCESSES,
                  _ACCESSES, st.booleans()),
        min_size=1, max_size=80))
    def test_resolved_accesses_match_oracle(self, config, steps):
        """The machine's path: resolved entries plus raw accesses."""
        oracle = OracleTimingModel(config)
        model = TimingModel(config)
        for shape, a, b, v, reads, writes, taken in steps:
            instr = _SHAPES[shape](a, b, v)
            oracle.observe(instr, _granules(reads), _granules(writes), taken)
            model.account(model.resolve(instr), reads, writes, taken)
            assert model.cycles == oracle.cycles

    @pytest.mark.parametrize("config", _CONFIG_LIST,
                             ids=["default", "narrow", "wide"])
    def test_saturated_port_matches_oracle(self, config):
        """Seeded single-port streams: mostly independent, rarely taken."""
        for seed in range(150):
            rng = random.Random(seed)
            shapes = _SHAPES_BY_PORT[rng.choice(_PORTS)]
            oracle = OracleTimingModel(config)
            model = TimingModel(config)
            for _ in range(rng.randint(1, 80)):
                instr = rng.choice(shapes)(rng.choice(_GPRS),
                                           rng.choice(_GPRS),
                                           rng.randrange(4))
                reads = [rng.randrange(13)] if rng.random() < 0.5 else []
                writes = [rng.randrange(13)] if rng.random() < 0.5 else []
                taken = rng.random() < 0.1
                oracle.observe(instr, reads, writes, taken)
                model.observe(instr, reads, writes, taken)
                assert model.cycles == oracle.cycles, (seed, instr)

    def test_zero_size_access_covers_one_granule(self):
        """A 0-byte access still touches the granule holding its address."""
        store = ins("movq", _r("rax"), _mem("rbp"))
        load = ins("movq", _mem("rbx"), _r("rcx"))
        oracle = OracleTimingModel()
        model = TimingModel()
        oracle.observe(store, [], granules(16, 0), False)
        model.account(model.resolve(store), [], [(16, 0)], False)
        oracle.observe(load, [2], [], False)
        model.account(model.resolve(load), [(16, 8)], [], False)
        assert model.cycles == oracle.cycles


class TestBinaryStreams:
    """Every static instruction of the paper's binaries, as one stream."""

    def _check(self, program, seed):
        rng = random.Random(seed)
        instructions = list(program.instructions())
        assert instructions
        oracle = OracleTimingModel()
        model = TimingModel()
        table = [model.resolve(instr) for instr in instructions]
        for instr, entry in zip(instructions, table):
            accesses = [(rng.randrange(256), rng.choice((1, 4, 8, 16)))
                        for _ in range(rng.randrange(3))]
            writes = [(rng.randrange(256), 8)] if rng.random() < 0.3 else []
            taken = rng.random() < 0.3
            oracle.observe(instr, _granules(accesses), _granules(writes),
                           taken)
            model.account(entry, accesses, writes, taken)
            assert model.cycles == oracle.cycles, instr
        return len(instructions)

    def test_bfs_ferrum(self, workload_build):
        self._check(workload_build("bfs")["ferrum"].asm, seed=11)

    def test_bfs_dme_pair(self, workload_build):
        program = workload_build("bfs")["dme"].asm
        self._check(program, seed=12)
        self._check(program.secondary, seed=13)
