"""Columnar trace chunks and their record-materializing adapter.

The fast executor's chunk stream, flattened back through
``TraceChunk.records()``, must reproduce the reference executor's
object stream field for field — that is what lets security observers
and trace-level tests consume either engine.  In the other direction,
the reference executor's own ``run_chunks()`` encoding must yield the
fast engine's columns row for row, since both feed the one timing loop.
"""

import pytest

from repro.arch.executor import (
    Executor, InstructionLimitError, SimulationError,
)
from repro.arch.fast_executor import FastExecutor
from repro.arch.trace import CHUNK_RECORDS, DRAIN_REASONS, chunk_records
from repro.isa.assembler import assemble
from repro.uarch.config import SpeculationConfig
from repro.workloads.microbench import MicrobenchSpec, compile_microbench
from repro.workloads.registry import get_workload

FIELDS = {
    "inst": ("seq", "pc", "op", "opclass", "srcs", "dst", "mem_addr",
             "mem_width", "is_store", "taken", "target", "secure"),
    "drain": ("seq", "reason", "spm_cycles", "level"),
    "transient": ("seq", "pc", "op", "opclass", "mem_addr", "mem_width",
                  "is_store", "taken"),
}


def _drive(executor, stream):
    """Consume *stream*; return its items, the run's error (if any)
    and the executor's functional counters."""
    items = []
    try:
        for item in stream:
            items.append(item)
    except SimulationError as error:
        return items, (type(error), str(error),
                       getattr(error, "executed", None)), executor.result
    return items, None, executor.result


def _columns(chunks):
    """Flattened ``(pc, addr, taken)`` columns: the timing model reads
    rows in order and ignores chunk boundaries."""
    return tuple([value for chunk in chunks for value in getattr(chunk, name)]
                 for name in ("pc", "addr", "taken"))


def assert_streams_identical(program, sempe, **options):
    """Reference records, fast chunks and the reference chunk encoding
    agree — or, for a run that faults, all three raise the same error
    after the same functional counters.  Returns the fast chunks and
    the error as ``(type, message, executed)``, or ``None``."""
    runs = []
    for executor_cls, method in ((Executor, "run"),
                                 (FastExecutor, "run_chunks"),
                                 (Executor, "run_chunks")):
        executor = executor_cls(program, sempe=sempe, **options)
        runs.append(_drive(executor, getattr(executor, method)()))
    (reference, ref_error, ref_result), (chunks, fast_error, fast_result), \
        (ref_chunks, chunk_error, chunk_result) = runs
    assert ref_error == fast_error == chunk_error
    assert ref_result == fast_result == chunk_result
    if ref_error is not None:
        return chunks, ref_error
    assert _columns(ref_chunks) == _columns(chunks)
    materialized = list(chunk_records(chunks))
    assert len(reference) == len(materialized)
    for ref, fast in zip(reference, materialized):
        assert ref.kind == fast.kind
        for field in FIELDS[ref.kind]:
            assert getattr(ref, field) == getattr(fast, field), (
                f"{field} differs at seq {ref.seq}: "
                f"{getattr(ref, field)!r} != {getattr(fast, field)!r}"
            )
    return chunks, None


def test_records_match_reference_sempe():
    """quicksort has calls (JAL/JALR), loads/stores and secure regions."""
    program = compile_microbench(
        MicrobenchSpec("quicksort", w=1, iters=1), "sempe").program
    chunks, _ = assert_streams_identical(program, sempe=True)
    # Drains are present and correctly tagged.
    reasons = {record.reason for chunk in chunks
               for record in chunk.records() if record.kind == "drain"}
    assert reasons == set(DRAIN_REASONS)


def test_records_match_reference_legacy():
    program = compile_microbench(
        MicrobenchSpec("quicksort", w=1, iters=1), "sempe").program
    assert_streams_identical(program, sempe=False)


def test_records_match_reference_speculation():
    """The spectre gadget with the window open: transient rows."""
    spec = get_workload("spectre")
    program = spec.compile("plain", **spec.grid[0]).program
    chunks, _ = assert_streams_identical(
        program, sempe=False, speculation=SpeculationConfig(enabled=True))
    assert any(record.kind == "transient"
               for record in chunk_records(chunks))


# Alternating indirect calls through a register (targets patched in
# once the labels are known), each returning through ``ret``.
INDIRECT_CALLS = """
    .text
main:
    addi s0, zero, 12
loop:
    li   a1, {inc}
    andi a2, s0, 1
    beq  a2, zero, call
    li   a1, {dec}
call:
    jalr ra, a1
    addi s0, s0, -1
    bne  s0, zero, loop
    halt
inc:
    addi a0, a0, 2
    ret
dec:
    addi a0, a0, -1
    ret
"""


def test_records_match_reference_indirect_jumps():
    labels = assemble(INDIRECT_CALLS.format(inc=0, dec=0)).labels
    program = assemble(INDIRECT_CALLS.format(inc=labels["inc"],
                                             dec=labels["dec"]))
    chunks, _ = assert_streams_identical(program, sempe=False)
    targets = {record.target for record in chunk_records(chunks)
               if record.kind == "inst" and record.op.value == "jalr"}
    assert {labels["inc"], labels["dec"]} <= targets


@pytest.mark.parametrize("sempe", [True, False])
def test_instruction_limit_raises_identically(sempe):
    """A budget past one chunk but short of the run: every stream
    raises the same InstructionLimitError at the same point."""
    program = compile_microbench(
        MicrobenchSpec("quicksort", w=2, iters=2), "sempe").program
    budget = CHUNK_RECORDS + 100
    _, error = assert_streams_identical(program, sempe=sempe,
                                        max_instructions=budget)
    assert error[0] is InstructionLimitError and error[2] == budget


def test_chunk_batching_and_seq_continuity():
    program = compile_microbench(
        MicrobenchSpec("quicksort", w=2, iters=2), "sempe").program
    chunks = list(FastExecutor(program, sempe=True).run_chunks())
    assert len(chunks) > 1, "workload too small to exercise batching"
    expected_seq = 0
    for chunk in chunks[:-1]:
        # Drain rows can push a chunk slightly past the nominal size.
        assert CHUNK_RECORDS <= chunk.n <= CHUNK_RECORDS + 3
        assert chunk.seq0 == expected_seq
        expected_seq += chunk.n
    assert chunks[-1].seq0 == expected_seq


def test_run_chunks_is_single_use():
    program = assemble("""
        .text
    main:
        addi a0, a0, 1
        halt
    """)
    executor = FastExecutor(program, sempe=False)
    list(executor.run_chunks())
    try:
        list(executor.run_chunks())
    except RuntimeError:
        pass
    else:
        raise AssertionError("second run_chunks() should be rejected")
