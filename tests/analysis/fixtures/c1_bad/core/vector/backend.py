"""C1 fixture (bad): dispatches a unit that is defined nowhere."""


class VectorBackend:
    def run(self, collector, snapshot):
        out = [collector.collect_flow_entity(snapshot, k) for k in sorted(snapshot)]
        out += [collector.check_ghost_entity(snapshot, k) for k in sorted(snapshot)]
        return out
