"""Benchmark harness for the megmc package.

The harness drives the package only through its public functions:
workloads and the correctness checks on their outputs in `workloads`,
the wrappers that keep the learners' traces and time set-up in
`capture`, and the per-module tracing wrappers in `tracing`. Nothing
here edits the package; the tracer rebinds names in the package's
modules for the length of a traced run and restores them afterwards.
"""
