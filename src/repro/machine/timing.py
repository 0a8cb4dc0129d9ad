"""Restricted-dataflow timing model.

The paper's central performance claim is architectural: scalar duplication
competes with the original program for integer/branch resources, while
FERRUM's SIMD duplication flows into otherwise idle vector units and
amortizes one checker branch over four protected results. This model charges
exactly those costs and nothing else. It approximates a modern out-of-order
core as a dataflow machine with three restrictions:

* **fetch bandwidth** — at most ``fetch_width`` instructions enter the
  window per cycle, and a *taken* branch redirects fetch with a penalty
  (never-taken checker branches are effectively free in the front end);
* **execution ports** — each instruction occupies one unit of its port
  class (INT/VEC/LOAD/STORE/BRANCH) for one cycle; saturated ports delay
  issue. One branch unit means a checker branch *per protected instruction*
  (the hybrid baseline) serializes at one per cycle, while one per four
  (FERRUM) does not;
* **true dependencies** — an instruction issues only when its source
  registers and source memory bytes are ready. The model is driven online by
  the functional simulator, which supplies real effective addresses, so
  store→load dependencies through stack slots — the serialization that makes
  -O0 code latency-bound — are tracked exactly. Duplicates and lane captures
  are off the critical path and overlap with the original chain.

``cycles`` is the completion time of the last instruction observed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.asm.instructions import Instruction, InstrKind
from repro.asm.operands import Reg
from repro.asm.registers import RegisterKind


class Port(enum.Enum):
    """Execution unit classes."""

    INT = "int"
    VEC = "vec"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"


@dataclass(frozen=True)
class TimingConfig:
    """Microarchitectural parameters.

    Defaults model a modest out-of-order core: 4-wide fetch, a 48-entry
    reorder buffer with in-order retirement, one load and one store pipe,
    two scalar ALUs, one branch unit — and a two-wide vector domain that
    ordinary integer code leaves idle, which is exactly the resource
    FERRUM's duplication strategy exploits (paper Sec. I: "under-utilized
    resources such as SIMD capability").
    """

    fetch_width: int = 4
    rob_size: int = 48
    ports: dict[Port, int] = field(
        default_factory=lambda: {
            Port.INT: 2,
            Port.VEC: 2,
            Port.LOAD: 1,
            Port.STORE: 1,
            Port.BRANCH: 1,
        }
    )
    latency_alu: int = 1
    latency_imul: int = 3
    latency_idiv: int = 20
    latency_load: int = 3
    latency_lea: int = 1
    latency_setcc: int = 1
    latency_vec_move: int = 1   # GPR/memory <-> vector lane insert
    latency_vec_alu: int = 1
    latency_vec_insert: int = 1
    taken_branch_penalty: int = 2


def port_of(instr: Instruction) -> Port:
    """Execution port class of an instruction."""
    kind = instr.kind
    if kind.is_vector or _touches_vector(instr):
        return Port.VEC
    if kind in (InstrKind.JMP, InstrKind.JCC, InstrKind.CALL, InstrKind.RET):
        return Port.BRANCH
    if kind is InstrKind.PUSH:
        return Port.STORE
    if kind is InstrKind.POP:
        return Port.LOAD
    if instr.writes_memory():
        return Port.STORE
    if instr.reads_memory() and kind in (InstrKind.MOV, InstrKind.MOVEXT):
        return Port.LOAD
    return Port.INT


def _touches_vector(instr: Instruction) -> bool:
    return any(
        isinstance(op, Reg) and op.register.kind is RegisterKind.VECTOR
        for op in instr.operands
    )


def latency_of(instr: Instruction, config: TimingConfig) -> int:
    """Result latency of an instruction under ``config``."""
    kind = instr.kind
    if kind is InstrKind.IDIV:
        return config.latency_idiv
    if kind is InstrKind.ALU and instr.mnemonic.startswith("imul"):
        return config.latency_imul
    if kind.is_vector or _touches_vector(instr):
        if kind in (InstrKind.VECALU, InstrKind.VECTEST):
            return config.latency_vec_alu
        if kind is InstrKind.VECINSERT:
            return config.latency_vec_insert
        return config.latency_vec_move
    if instr.reads_memory():
        return config.latency_load
    if kind is InstrKind.LEA:
        return config.latency_lea
    if kind is InstrKind.SETCC:
        return config.latency_setcc
    return config.latency_alu


#: Pre-resolved static timing facts of one instruction (see
#: :meth:`TimingModel.resolve`): source register roots, destination register
#: roots, the model's unit list for the instruction's port, and its latency.
Resolved = tuple[tuple[str, ...], tuple[str, ...], list[int], int]


def _granule_range(addr: int, size: int) -> range:
    """8-byte dependence granules covering [addr, addr+size); a 0-byte
    access still touches the granule holding ``addr``."""
    return range(addr >> 3, ((addr + max(size, 1) - 1) >> 3) + 1)


#: Kinds that move the stack pointer implicitly.
_STACK_KINDS = (InstrKind.PUSH, InstrKind.POP, InstrKind.CALL, InstrKind.RET)


class TimingModel:
    """Online model: feed instructions in trace order, read ``cycles``.

    Everything static about an instruction is derived once by
    :meth:`resolve`; :meth:`account` then charges one dynamic execution
    from that entry and the instruction's raw memory accesses. A
    :class:`~repro.machine.cpu.Machine` resolves its code once per timed
    run, against that run's model.
    """

    def __init__(self, config: TimingConfig | None = None) -> None:
        self.config = config = config or TimingConfig()
        self._rob_size = config.rob_size
        self._fetch_width = config.fetch_width
        self._redirect_delay = 1 + config.taken_branch_penalty
        self._port_free: dict[Port, list[int]] = {
            port: [0] * count for port, count in config.ports.items()
        }
        self._reg_ready: dict[str, int] = {}
        self._mem_ready: dict[int, int] = {}
        self._fetch_cycle = 0
        self._fetched_this_cycle = 0
        self._retire: list[int] = [0] * self._rob_size
        self._last_retire = 0
        self.cycles = 0
        self.instructions = 0

    def resolve(self, instr: Instruction) -> Resolved:
        """The static timing facts of ``instr`` under this model's config.

        Sources are the explicit register reads plus address registers,
        with ``rflags`` only for non-branch flag readers (``set<cc>``
        waits for its flags producer; ``j<cc>`` is predicted and does
        not). Destinations add ``rflags`` for flag writers and ``rsp``
        for the implicit stack moves of push/pop/call/ret.
        """
        kind = instr.kind
        # read_registers() already includes every address register.
        sources = {reg.root for reg in instr.read_registers()}
        sources.discard("rflags")
        if instr.spec.reads_flags and kind is not InstrKind.JCC:
            sources.add("rflags")
        dests = {reg.root for reg in instr.dest_registers()}
        if instr.spec.writes_flags:
            dests.add("rflags")
        if kind in _STACK_KINDS:
            dests.add("rsp")
        return (
            tuple(sorted(sources)),
            tuple(sorted(dests)),
            self._port_free[port_of(instr)],
            latency_of(instr, self.config),
        )

    # -- main entry ----------------------------------------------------------

    def account(
        self,
        entry: Resolved,
        reads: list[tuple[int, int]],
        writes: list[tuple[int, int]],
        taken: bool,
    ) -> None:
        """Account one dynamic execution of a resolved instruction.

        ``reads``/``writes`` are the raw ``(addr, size)`` memory accesses;
        dependences are tracked on the 8-byte granules they cover.

        The instruction enters the window at its fetch slot, bounded by
        fetch bandwidth and by reorder-buffer capacity: the instruction
        ``rob_size`` positions older must have retired. This is what makes
        sheer instruction volume cost real time — redundant work is only
        free while it fits in the window. It issues on the first unit of
        its port that is free once its sources are ready.
        """
        sources, dests, units, latency = entry

        # Fetch slot.
        slot_index = self.instructions % self._rob_size
        retire = self._retire
        fetch = self._fetch_cycle
        oldest = retire[slot_index]
        if oldest > fetch:
            fetch = oldest
            fetched = 1
        else:
            fetched = self._fetched_this_cycle + 1
        earliest = fetch
        if fetched >= self._fetch_width:
            fetch += 1
            fetched = 0

        # Sources ready.
        reg_ready = self._reg_ready
        for root in sources:
            ready = reg_ready.get(root, 0)
            if ready > earliest:
                earliest = ready
        mem_ready = self._mem_ready
        for addr, size in reads:
            for granule in _granule_range(addr, size):
                ready = mem_ready.get(granule, 0)
                if ready > earliest:
                    earliest = ready

        # Port claim: the first unit free by ``earliest``, else the first
        # unit to free up.
        for index, free in enumerate(units):
            if free <= earliest:
                issue = earliest
                break
        else:
            issue = min(units)
            index = units.index(issue)
        units[index] = issue + 1
        done = issue + latency

        for root in dests:
            reg_ready[root] = done
        for addr, size in writes:
            for granule in _granule_range(addr, size):
                mem_ready[granule] = done
        if taken:
            redirect = issue + self._redirect_delay
            if redirect > fetch:
                fetch = redirect
                fetched = 0
        self._fetch_cycle = fetch
        self._fetched_this_cycle = fetched

        # In-order retirement: an instruction retires no earlier than its
        # completion and no earlier than its program-order predecessor.
        retired = done if done > self._last_retire else self._last_retire
        self._last_retire = retired
        retire[slot_index] = retired
        self.instructions += 1
        if done > self.cycles:
            self.cycles = done

    def observe(
        self,
        instr: Instruction,
        read_granules: list[int],
        write_granules: list[int],
        taken: bool,
    ) -> None:
        """Account one dynamically executed instruction, given the 8-byte
        granules it reads and writes (unit-test entry point)."""
        self.account(
            self.resolve(instr),
            [(granule << 3, 8) for granule in read_granules],
            [(granule << 3, 8) for granule in write_granules],
            taken,
        )

    @staticmethod
    def granules(addr: int, size: int) -> list[int]:
        """8-byte dependence granules covering [addr, addr+size)."""
        return list(_granule_range(addr, size))
