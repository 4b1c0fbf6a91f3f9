"""Seeded input generators for the wall-clock benchmark.

Everything a workload feeds the guest is made here from the run's
``--seed``: the same seed gives byte-identical inputs, and no generator
reads a clock, the environment or global random state.  Sizes never
depend on the seed, only contents do, so the amount of guest work per
run is (nearly) the same for every seed and the timings stay comparable
across seeds.
"""

from __future__ import annotations

import random
import struct
from typing import List

#: Registers the generated code may clobber.  r10 is the pass counter,
#: r11 the data base, r13/r14/r15 are sp/lr/pc, and r7 is left alone so
#: the syscall wrappers' use of it cannot collide with live data.
DATA_REGS = ("r0", "r1", "r2", "r3", "r4", "r5", "r6", "r8", "r9", "r12")

_ALU_OPS = ("add", "sub", "eor", "orr", "and", "bic", "rsb")
_FLAG_OPS = ("adds", "subs", "eors", "orrs", "ands")
_SHIFTS = ("lsl", "lsr", "asr", "ror")
_CONDS = ("eq", "ne", "cs", "cc", "mi", "pl", "hi", "ls", "ge", "lt",
          "gt", "le")
#: Block-ending compares test the pass counter, so whether a branch is
#: taken depends only on the (compare, condition) pair and the pass —
#: never on data — and the number of distinct TBs stays the same for
#: every seed.
_COMPARES = ("cmp r10, #1", "cmp r10, #2", "cmp r10, #3", "tst r10, #1",
             "tst r10, #2")

#: Cold-code program shape: N_BLOCKS branch-terminated blocks, run
#: PASSES times.  The not-taken side of a block's branch starts a
#: second, overlapping translation block, which brings the distinct-TB
#: count to about 650 per program.  Every block body holds one
#: instruction of each BLOCK_KINDS kind in a seeded order (the last
#: slot's alternatives, the compare kinds and the branch conditions are
#: spread evenly over the blocks), so all programs have the same make-up
#: and only operands, order and branch outcomes vary with the seed.
N_BLOCKS = 428
BLOCK_KINDS = ("alu-imm", "alu-flags", "alu-shift", "load", "store",
               "alu-cond|mul|load|store")
PASSES = 2
DATA_WORDS = 1024           # the load/store window: one 4 KiB page
#: Every FALLBACK_EVERY-th block swaps one body instruction for a
#: construct ``StructuralFilter`` routes through the TCG fallback: a
#: carry-consuming ALU op with a real barrel shift, or a conditional
#: register-shifted operand, half of each.
FALLBACK_EVERY = 8

#: memcached request stream size (matches the Fig 19 analog's 80).
MEMCACHED_REQUESTS = 80
#: untar archive shape: the guest stages 16 sectors (8 KiB) before
#: extracting, so the whole archive must fit in them.
UNTAR_FILES = 10
UNTAR_DATA_BYTES = 7200
UNTAR_MIN_FILE = 200


def _rng(seed: int, stream: str) -> random.Random:
    """An independent deterministic stream per (seed, generator)."""
    return random.Random(f"{stream}:{seed}")


def _insn(rng: random.Random, kind: str) -> str:
    """One straight-line body instruction of *kind* (never writes
    r10/r11)."""
    rd = rng.choice(DATA_REGS)
    rn = rng.choice(DATA_REGS)
    rm = rng.choice(DATA_REGS)
    offset = 4 * rng.randrange(DATA_WORDS)
    if kind == "alu-imm":
        return f"{rng.choice(_ALU_OPS)} {rd}, {rn}, #{rng.randrange(1, 256)}"
    if kind == "alu-flags":
        return f"{rng.choice(_FLAG_OPS)} {rd}, {rn}, {rm}"
    if kind == "alu-shift":
        return (f"{rng.choice(_ALU_OPS)} {rd}, {rn}, {rm}, "
                f"{rng.choice(_SHIFTS)} #{rng.randrange(1, 32)}")
    if kind == "alu-cond":
        return (f"{rng.choice(_ALU_OPS)}{rng.choice(_CONDS)} {rd}, {rn}, "
                f"#{rng.randrange(1, 256)}")
    if kind == "mul":
        return f"mul {rd}, {rn}, {rm}"
    if kind == "load":
        if rng.random() < 0.3:
            return f"ldrb {rd}, [r11, #{offset + rng.randrange(4)}]"
        return f"ldr {rd}, [r11, #{offset}]"
    if rng.random() < 0.3:
        return f"strb {rd}, [r11, #{offset + rng.randrange(4)}]"
    return f"str {rd}, [r11, #{offset}]"


def _fallback_insn(rng: random.Random, kind: str) -> str:
    """A construct the structural filter sends to the TCG fallback."""
    rd = rng.choice(DATA_REGS)
    rn = rng.choice(DATA_REGS)
    rm = rng.choice(DATA_REGS)
    if kind == "carry-shift":
        op = rng.choice(("adc", "sbc"))
        return (f"{op} {rd}, {rn}, {rm}, {rng.choice(_SHIFTS)} "
                f"#{rng.randrange(1, 32)}")
    rs = rng.choice(DATA_REGS)
    return (f"{rng.choice(('add', 'eor', 'orr'))}{rng.choice(_CONDS)} "
            f"{rd}, {rn}, {rm}, {rng.choice(_SHIFTS)} {rs}")


def _balanced(rng: random.Random, options, count: int) -> List:
    """*count* draws in which every option appears equally often (up to
    rounding), in seeded order: the program's make-up stays fixed while
    the seed decides where each construct goes."""
    draws = [options[index % len(options)] for index in range(count)]
    rng.shuffle(draws)
    return draws


def cold_code_program(seed: int, index: int) -> str:
    """Assembly body (defines ``main``) of generated program *index*.

    About 650 distinct basic blocks of about 8 instructions — ALU ops,
    some flag-setting and some with shifted operands, softmmu loads and
    stores, compares and conditional branches, and a fixed share of
    fallback constructs.  The body runs PASSES times, then the program
    prints a checksum of every data register and exits 0.
    """
    rng = _rng(seed, f"cold-code/{index}")
    lines = ["main:", "    ldr r11, =USER_HEAP"]
    for reg in DATA_REGS:
        lines.append(f"    ldr {reg}, ={rng.getrandbits(32)}")
    lines += [f"    mov r10, #{PASSES}", "    b body", ".ltorg", "body:"]
    extra = _balanced(rng, BLOCK_KINDS[-1].split("|"), N_BLOCKS)
    branches = _balanced(rng, [(compare, cond) for compare in _COMPARES
                               for cond in _CONDS], N_BLOCKS)
    n_fallback = N_BLOCKS // FALLBACK_EVERY
    fallbacks = _balanced(rng, ("carry-shift", "cond-reg-shift"),
                          n_fallback)
    for block in range(N_BLOCKS):
        kinds = list(BLOCK_KINDS[:-1]) + [extra[block]]
        rng.shuffle(kinds)
        body = [_insn(rng, kind) for kind in kinds]
        if block % FALLBACK_EVERY == FALLBACK_EVERY - 1:
            body[rng.randrange(len(body))] = _fallback_insn(
                rng, fallbacks[block // FALLBACK_EVERY])
        lines.append(f"b{block}:")
        lines += [f"    {insn}" for insn in body]
        compare, cond = branches[block]
        lines.append(f"    {compare}")
        lines.append(f"    b{cond} b{block + 1}")
        # The not-taken path: one instruction, then it falls into the
        # next block (a second translation block starts here).
        lines.append(f"    eor {rng.choice(DATA_REGS)}, "
                     f"{rng.choice(DATA_REGS)}, #{rng.randrange(1, 256)}")
    lines += [f"b{N_BLOCKS}:",
              "    subs r10, r10, #1",
              "    bne body",
              "    mov r7, r0"]
    for reg in DATA_REGS[1:]:
        lines.append(f"    eor r7, r7, {reg}, ror #7")
    lines += ["    mov r0, r7",
              "    bl updec",
              "    mov r0, #0",
              "    bl uexit"]
    return "\n".join(lines) + "\n"


def memcached_requests(seed: int) -> List[bytes]:
    """NIC request stream for the memcached analog: [op, key, lo, hi].

    Two SETs to every GET, as in the Fig 19 analog; keys and values are
    drawn from the seed."""
    rng = _rng(seed, "memcached")
    packets = []
    for index in range(MEMCACHED_REQUESTS):
        key = rng.randrange(64)
        if index % 3 != 2:
            value = rng.randrange(1 << 16)
            packets.append(bytes([ord("S"), key, value & 0xFF, value >> 8]))
        else:
            packets.append(bytes([ord("G"), key, 0, 0]))
    return packets


def untar_archive(seed: int) -> bytes:
    """Disk image for the untar analog: UNTAR_FILES entries of
    (16-byte name, 4-byte little-endian size, data padded to 4 bytes),
    then an empty-name terminator.  The total data size is fixed; the
    split between files, the names and the bytes come from the seed."""
    rng = _rng(seed, "untar")
    spare = UNTAR_DATA_BYTES - UNTAR_FILES * UNTAR_MIN_FILE
    cuts = sorted(rng.randrange(spare + 1) for _ in range(UNTAR_FILES - 1))
    bounds = [0] + cuts + [spare]
    entries = []
    for index in range(UNTAR_FILES):
        size = UNTAR_MIN_FILE + bounds[index + 1] - bounds[index]
        stem = "".join(rng.choice("abcdefghijklmnop") for _ in range(6))
        name = f"{stem}{index:02d}.dat".encode().ljust(16, b"\0")
        data = bytes(rng.getrandbits(8) for _ in range(size))
        entries.append(name + struct.pack("<I", size) + data +
                       b"\0" * (-size % 4))
    return b"".join(entries) + b"\0" * 16
