//! Cross-crate integration tests. Each file under `t/` exercises a
//! whole-pipeline property:
//!
//! * `corpus_shape` — Table-1 shape assertions over the whole corpus;
//! * `global_correctness` — Theorem 7.5: fuzzed packets never hit a bug in
//!   any snapshot the shim accepts;
//! * `replay` — static counterexamples reproduce on the interpreter;
//! * `annotations_roundtrip` — the compile-time artifact survives its
//!   textual round trip for every corpus program;
//! * `solver_differential` — the governed solver and the raw internal
//!   CDCL bit-blaster agree on random formulas.
