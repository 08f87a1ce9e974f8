"""C1 fixture (good): array backend with a replacement manifest.

``harden_span_entity`` is replicated as array math here rather than
dispatched; naming it in this manifest satisfies the C1 coverage
check.
"""


class VectorBackend:
    def run(self, collector, snapshot):
        return [collector.collect_flow_entity(snapshot, k) for k in sorted(snapshot)]
