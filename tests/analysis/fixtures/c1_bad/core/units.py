"""C1 fixture (bad): a unit neither the serial path nor the vector backend runs."""


class Collector:
    def collect_flow_entity(self, snapshot, key):
        return key

    def collect_orphan_entity(self, snapshot, key):
        return key

    def run(self, snapshot):
        return [self.collect_flow_entity(snapshot, k) for k in sorted(snapshot)]
