"""qdeg benchmark: seeded workloads, checks and layer tracing."""
