"""Differential fuzzing of machine semantics against big-int references.

Each test drives randomly drawn operands through the real decode/execute
pipeline (tiny assembly programs on :class:`Machine`) and checks the
architectural result against an independent Python reference computed with
unbounded integers. This is the harness that would have caught the
``int(dividend / divisor)`` idiv bug: float-based shortcuts agree with the
reference on small operands and drift beyond 2^53, so the 64-bit draws
here exercise exactly the range where shortcuts break.

Every snippet runs on every execution engine. Single compiled steps
compute every flag, while superblocks may elide flags proven dead, so only
running each draw on each engine exercises all of the generated flag code.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm.parser import parse_program
from repro.machine.cpu import ENGINES, Machine
from repro.utils.bitops import to_signed, to_unsigned, trunc_div

I64 = st.integers(-(1 << 63), (1 << 63) - 1)
NONZERO_I64 = I64.filter(lambda v: v != 0)
I32 = st.integers(-(1 << 31), (1 << 31) - 1)

_FUZZ = settings(max_examples=40, deadline=None)


def _run(body: str) -> int:
    """Run a snippet on every engine and return %rax as a signed 64-bit
    integer; every engine must agree, so checking the returned value
    against the big-int reference checks each engine's result."""
    text = "\t.globl main\nmain:\n"
    for line in body.strip().splitlines():
        text += f"\t{line.strip()}\n"
    text += "\tmovq %rax, %rdi\n\tcall print_long\n\tmovl $0, %eax\n\tretq\n"
    program = parse_program(text)
    results = {
        engine: int(Machine(program, engine=engine).run().output[0])
        for engine in ENGINES
    }
    assert len(set(results.values())) == 1, results
    return results[ENGINES[0]]


class TestAluDifferential:
    @_FUZZ
    @given(I64, I64, st.sampled_from(["addq", "subq", "imulq", "andq",
                                      "orq", "xorq"]))
    def test_binary_64(self, a, b, op):
        got = _run(f"movq ${a}, %rax\n movq ${b}, %rcx\n {op} %rcx, %rax")
        reference = {
            "addq": a + b, "subq": a - b, "imulq": a * b,
            "andq": a & b, "orq": a | b, "xorq": a ^ b,
        }[op]
        assert got == to_signed(to_unsigned(reference, 64), 64)

    @_FUZZ
    @given(I32, I32, st.sampled_from(["addl", "subl", "imull", "andl",
                                      "orl", "xorl"]))
    def test_binary_32_zero_extends(self, a, b, op):
        # 32-bit ops wrap at 32 bits and zero-extend into the full register.
        got = _run(f"movl ${a}, %eax\n movl ${b}, %ecx\n {op} %ecx, %eax")
        reference = {
            "addl": a + b, "subl": a - b, "imull": a * b,
            "andl": a & b, "orl": a | b, "xorl": a ^ b,
        }[op]
        assert got == to_unsigned(reference, 32)

    @_FUZZ
    @given(I64)
    def test_unary_64(self, a):
        assert _run(f"movq ${a}, %rax\n negq %rax") \
            == to_signed(to_unsigned(-a, 64), 64)
        assert _run(f"movq ${a}, %rax\n notq %rax") == ~a


class TestShiftDifferential:
    @_FUZZ
    @given(I64, st.integers(0, 63))
    def test_shl(self, a, count):
        got = _run(f"movq ${a}, %rax\n movb ${count}, %cl\n shlq %cl, %rax")
        assert got == to_signed(to_unsigned(a << count, 64), 64)

    @_FUZZ
    @given(I64, st.integers(0, 63))
    def test_shr_is_logical(self, a, count):
        got = _run(f"movq ${a}, %rax\n movb ${count}, %cl\n shrq %cl, %rax")
        assert got == to_signed(to_unsigned(a, 64) >> count, 64)

    @_FUZZ
    @given(I64, st.integers(0, 63))
    def test_sar_is_arithmetic(self, a, count):
        got = _run(f"movq ${a}, %rax\n movb ${count}, %cl\n sarq %cl, %rax")
        assert got == a >> count  # Python's >> floors, == sar for any sign


class TestDivisionDifferential:
    @_FUZZ
    @given(I64, NONZERO_I64)
    def test_idivq_quotient_and_remainder(self, dividend, divisor):
        # cqto sign-extends rax into rdx, so the 128-bit dividend equals
        # the 64-bit value and the quotient always fits: no #DE possible.
        quotient = _run(f"""
            movq ${dividend}, %rax
            movq ${divisor}, %rcx
            cqto
            idivq %rcx
        """)
        remainder = _run(f"""
            movq ${dividend}, %rax
            movq ${divisor}, %rcx
            cqto
            idivq %rcx
            movq %rdx, %rax
        """)
        assert quotient == trunc_div(dividend, divisor)
        assert remainder == dividend - trunc_div(dividend, divisor) * divisor

    @_FUZZ
    @given(I32, st.integers(1, (1 << 31) - 1))
    def test_idivl_widened(self, dividend, divisor):
        got = _run(f"""
            movl ${dividend}, %eax
            movl ${divisor}, %ecx
            cltd
            idivl %ecx
            movslq %eax, %rax
        """)
        assert got == trunc_div(dividend, divisor)


class TestCompareDifferential:
    @_FUZZ
    @given(I64, I64, st.sampled_from([("setl", lambda a, b: a < b),
                                      ("setg", lambda a, b: a > b),
                                      ("sete", lambda a, b: a == b),
                                      ("setle", lambda a, b: a <= b),
                                      ("setge", lambda a, b: a >= b),
                                      ("setne", lambda a, b: a != b)]))
    def test_cmp_setcc(self, a, b, case):
        mnemonic, reference = case
        # AT&T cmpq %rcx, %rax compares rax against rcx (a ? b).
        got = _run(f"""
            movq ${a}, %rax
            movq ${b}, %rcx
            cmpq %rcx, %rax
            {mnemonic} %al
            movzbl %al, %eax
        """)
        assert got == int(reference(a, b))

    @_FUZZ
    @given(I64, I64)
    def test_test_sets_zero_flag(self, a, b):
        got = _run(f"""
            movq ${a}, %rax
            movq ${b}, %rcx
            testq %rcx, %rax
            sete %al
            movzbl %al, %eax
        """)
        assert got == int((to_unsigned(a, 64) & to_unsigned(b, 64)) == 0)
