"""The repository benchmark: workloads, passes, span tracing (see README.md)."""
