"""C1 fixture (good): vector backend dispatching the same unit."""


class VectorBackend:
    def run(self, collector, snapshot):
        return [collector.collect_flow_entity(snapshot, k) for k in sorted(snapshot)]
