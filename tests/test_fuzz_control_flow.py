"""Differential fuzzing with control flow.

Structured random programs made of several basic blocks connected by
conditional forward branches and back-edges — this exercises block
chaining, the two-successor TB terminators and, crucially, the inter-TB
sync elimination (flags live across chained block boundaries).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import OptLevel
from repro.core.engine import make_rule_engine
from tests.test_fuzz_differential import FOOTER, HEADER, run_engine

_REGS = [f"r{i}" for i in range(6)]  # r6 is the loop counter
_COND = ["eq", "ne", "cs", "cc", "mi", "pl", "hi", "ls", "ge", "lt", "gt",
         "le"]


@st.composite
def block_body(draw):
    """A few flag-relevant instructions for one basic block."""
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        choice = draw(st.integers(0, 4))
        rd = draw(st.sampled_from(_REGS))
        rn = draw(st.sampled_from(_REGS))
        if choice == 0:
            lines.append(f"cmp {rn}, #{draw(st.sampled_from([0, 1, 0xFF]))}")
        elif choice == 1:
            lines.append(f"adds {rd}, {rn}, #{draw(st.integers(0, 255))}")
        elif choice == 2:
            lines.append(f"sub {rd}, {rn}, #{draw(st.integers(0, 255))}")
        elif choice == 3:
            cond = draw(st.sampled_from(_COND))
            lines.append(f"add{cond} {rd}, {rd}, #1")
        else:
            lines.append(f"ldr {rd}, [r7, #{draw(st.integers(0, 30)) * 4}]")
    return lines


@st.composite
def branchy_program(draw):
    """blocks connected by conditional forward branches.

    Shape per block i:  <body>; b<cond> Lj (j > i);  fall through.
    A bounded counted back-edge at the end exercises chained loops.
    """
    count = draw(st.integers(3, 6))
    bodies = [draw(block_body()) for _ in range(count)]
    lines = []
    for index, body in enumerate(bodies):
        lines.append(f"L{index}:")
        lines.extend("    " + text for text in body)
        if index < count - 1:
            target = draw(st.integers(index + 1, count - 1))
            cond = draw(st.sampled_from(_COND))
            lines.append(f"    b{cond} L{target}")
    # Counted loop over the whole region (r6 as the counter).
    lines.insert(0, "    mov r6, #3")
    lines.append("    subs r6, r6, #1")
    lines.append("    bne L0")
    return "\n".join(lines)


@settings(max_examples=20, deadline=None)
@given(branchy_program())
def test_branchy_programs_agree(body):
    source = HEADER + body + FOOTER
    reference = run_engine(source, "interp")
    assert reference == run_engine(source, "tcg"), "tcg diverged"
    for level in (OptLevel.BASE, OptLevel.ELIMINATION, OptLevel.FULL):
        outcome = run_engine(source, "rules", make_rule_engine(level))
        assert outcome == reference, f"rules-{level.name} diverged"
