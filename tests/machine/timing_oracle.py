"""Test-only oracle: the per-call cycle model the pre-resolved one replaced.

:class:`OracleTimingModel` re-derives every static fact (register reads,
port, latency, flag behaviour) on each observed instruction, exactly as the
model did before per-instruction resolution existed. It shares only the
port/latency classification functions with the production model; the
granule rule and the accounting — fetch slot, source readiness, port
claim, writeback and retirement — are independent copies, so the equivalence tests in
``test_timing_oracle.py`` catch any drift in the resolved fast path.
"""

from __future__ import annotations

from repro.asm.instructions import Instruction, InstrKind
from repro.asm.operands import Mem
from repro.machine.timing import Port, TimingConfig, latency_of, port_of


def granules(addr: int, size: int) -> list[int]:
    """8-byte dependence granules covering [addr, addr+size) — the
    original rule, kept apart from the production model's copy."""
    first = addr >> 3
    last = (addr + max(size, 1) - 1) >> 3
    return list(range(first, last + 1))


class OracleTimingModel:
    """Feed instructions in trace order with their granules; read ``cycles``."""

    def __init__(self, config: TimingConfig | None = None) -> None:
        self.config = config or TimingConfig()
        self._reg_ready: dict[str, int] = {}
        self._mem_ready: dict[int, int] = {}
        self._port_free: dict[Port, list[int]] = {
            port: [0] * count for port, count in self.config.ports.items()
        }
        self._fetch_cycle = 0
        self._fetched_this_cycle = 0
        self._retire: list[int] = [0] * self.config.rob_size
        self._last_retire = 0
        self.cycles = 0
        self.instructions = 0

    def _fetch_slot(self) -> int:
        oldest = self._retire[self.instructions % self.config.rob_size]
        if oldest > self._fetch_cycle:
            self._fetch_cycle = oldest
            self._fetched_this_cycle = 0
        slot = self._fetch_cycle
        self._fetched_this_cycle += 1
        if self._fetched_this_cycle >= self.config.fetch_width:
            self._fetch_cycle += 1
            self._fetched_this_cycle = 0
        return slot

    def _redirect_fetch(self, cycle: int) -> None:
        if cycle > self._fetch_cycle:
            self._fetch_cycle = cycle
            self._fetched_this_cycle = 0

    def _sources_ready(self, instr: Instruction, read_granules: list[int]) -> int:
        ready = 0
        for reg in instr.read_registers():
            if reg.root != "rflags":
                ready = max(ready, self._reg_ready.get(reg.root, 0))
        for op in instr.operands:
            if isinstance(op, Mem):
                for reg in op.registers():
                    ready = max(ready, self._reg_ready.get(reg.root, 0))
        for granule in read_granules:
            ready = max(ready, self._mem_ready.get(granule, 0))
        if instr.spec.reads_flags and instr.kind is not InstrKind.JCC:
            ready = max(ready, self._reg_ready.get("rflags", 0))
        return ready

    def _claim_port(self, port: Port, earliest: int) -> int:
        units = self._port_free[port]
        best = min(range(len(units)), key=lambda i: max(units[i], earliest))
        cycle = max(units[best], earliest)
        units[best] = cycle + 1
        return cycle

    def observe(
        self,
        instr: Instruction,
        read_granules: list[int],
        write_granules: list[int],
        taken: bool,
    ) -> None:
        fetch = self._fetch_slot()
        ready = self._sources_ready(instr, read_granules)
        issue = self._claim_port(port_of(instr), max(fetch, ready))
        done = issue + latency_of(instr, self.config)

        for reg in instr.dest_registers():
            self._reg_ready[reg.root] = done
        if instr.spec.writes_flags:
            self._reg_ready["rflags"] = done
        for granule in write_granules:
            self._mem_ready[granule] = done
        if instr.kind in (
            InstrKind.PUSH, InstrKind.POP, InstrKind.CALL, InstrKind.RET,
        ):
            self._reg_ready["rsp"] = done
        if taken:
            self._redirect_fetch(issue + 1 + self.config.taken_branch_penalty)

        retired = max(done, self._last_retire)
        self._last_retire = retired
        self._retire[self.instructions % self.config.rob_size] = retired
        self.instructions += 1
        if done > self.cycles:
            self.cycles = done
