#!/usr/bin/env python3
"""The backward-compatibility story, at the byte level.

The paper encodes sJMP as an ordinary branch with the 0x2e SecPrefix
byte and eosJMP as 0x2e 0x90 (prefix + NOP).  A legacy processor
ignores the prefix and sees a NOP, so one binary serves both machines:

* on a SeMPE processor it runs with both paths executing (secure);
* on a legacy processor it runs one path (fast, compatible, insecure).

This example compiles a secret-branching program once, encodes it to
bytes, decodes those same bytes with both decoders, runs both decodes,
and shows: identical results, different security.

Run:  python examples/backward_compat.py
"""

from repro.arch.executor import Executor
from repro.isa.encoding import decode_program, encode_program
from repro.isa.disassembler import disassemble_binary
from repro.isa.program import Program
from repro.lang import compile_source
from repro.security import noninterference_report

SOURCE = """
secret int key = 1;
int result = 0;

void main() {
  int acc = 0;
  if (key) {
    int w = 0;
    for (int i = 0; i < 15; i = i + 1) { w = w + i; }
    acc = acc + w;
  } else {
    acc = acc - 1;
  }
  result = acc;
}
"""


def main() -> None:
    compiled = compile_source(SOURCE, mode="sempe")
    blob = encode_program(compiled.program)
    print(f"one binary: {len(blob)} bytes "
          f"({compiled.program.count_secure_branches()} sJMP)\n")

    print(disassemble_binary(blob, legacy=False))
    print()
    print(disassemble_binary(blob, legacy=True))

    print("\n--- running the same bytes on both machines ---")
    for legacy in (False, True):
        instructions = decode_program(blob, legacy=legacy)
        program = Program(
            instructions,
            labels=dict(compiled.program.labels),
            data=list(compiled.program.data),
            entry=compiled.program.entry,
            name="decoded",
        )
        executor = Executor(program, sempe=not legacy)
        executor.run_to_completion()
        result = executor.state.memory.load_signed(
            program.symbols["result"])
        machine = "legacy" if legacy else "SeMPE "
        print(f"{machine} machine: result = {result}, "
              f"instructions = {executor.result.instructions}, "
              f"secure regions = {executor.result.secure_regions}")

    print("\n--- but only one of them is secure ---")
    for defense in ("sempe", "plain"):
        report = noninterference_report(
            compiled.program, "key", [0, 1, 3], defense=defense)
        machine = "SeMPE " if defense == "sempe" else "legacy"
        verdict = ("all channels closed" if report.secure
                   else "leaks via " + ", ".join(report.leaking_channels()))
        print(f"{machine} machine: {verdict}")


if __name__ == "__main__":
    main()
