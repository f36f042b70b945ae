"""Hierarchical node naming: the ``/sn01/192.168.0.1`` namespace.

The LiteOS shell presents the network as a file system — the paper's
sample sessions start with ``$pwd`` → ``/sn01/192.168.0.1``.  Nodes are
named "following IP conventions" in the testbed; the namespace maps names
to node ids and back, and renders shell paths.
"""

from __future__ import annotations

from repro.errors import NoSuchNode

__all__ = ["Namespace"]


class Namespace:
    """Bidirectional node-id ↔ node-name directory plus path rendering."""

    #: The sensor-network mount point the paper's sessions show.
    mount = "/sn01"

    def __init__(self):
        self._by_name: dict[str, int] = {}
        self._by_id: dict[int, str] = {}

    def register(self, node_id: int, name: str) -> None:
        """Bind ``name`` to ``node_id``; both must be unused."""
        if name in self._by_name:
            raise ValueError(f"name {name!r} already registered")
        if node_id in self._by_id:
            raise ValueError(f"node id {node_id} already registered")
        if "/" in name or " " in name or not name:
            raise ValueError(f"invalid node name {name!r}")
        self._by_name[name] = node_id
        self._by_id[node_id] = name

    def resolve(self, ref: "int | str") -> int:
        """Node id for a name, a path, or an id passed through.

        Accepts bare names (``192.168.0.2``), full paths
        (``/sn01/192.168.0.2``) and integer ids.  Unknown references raise
        :class:`NoSuchNode`.
        """
        if isinstance(ref, int):
            if ref not in self._by_id:
                raise NoSuchNode(f"no node with id {ref}")
            return ref
        name = ref
        if name.startswith(self.mount + "/"):
            name = name[len(self.mount) + 1:]
        if name in self._by_name:
            return self._by_name[name]
        # Shell convenience: a purely numeric reference that is not a
        # registered name addresses the node id directly.
        if name.isdigit() and int(name) in self._by_id:
            return int(name)
        raise NoSuchNode(f"no node named {ref!r}")

    def name_of(self, node_id: int) -> str:
        """Registered name of a node id."""
        try:
            return self._by_id[node_id]
        except KeyError:
            raise NoSuchNode(f"no node with id {node_id}") from None

    def path_of(self, node_id: int) -> str:
        """Shell path of a node (``/sn01/<name>``)."""
        return f"{self.mount}/{self.name_of(node_id)}"

    def names(self) -> list[str]:
        """All registered names, sorted."""
        return sorted(self._by_name)

    def ids(self) -> list[int]:
        """All registered node ids, sorted."""
        return sorted(self._by_id)

    def __contains__(self, ref: object) -> bool:
        try:
            self.resolve(ref)  # type: ignore[arg-type]
        except NoSuchNode:
            return False
        return True

    def __len__(self) -> int:
        return len(self._by_id)
