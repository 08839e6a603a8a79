"""Logical OO7 database graph maintained by the workload generator.

The generator keeps its own structural mirror of the database (assembly
hierarchy, composite parts, atomic parts, connections) so it can

* emit well-formed trace events in an order that never leaves a live object
  unreachable for more than a moment (a collection can fire between any two
  events), and
* compute the ``dies`` annotation of every disconnection *constructively* —
  it performs each disconnection deliberately and knows the local structure,
  so no global reachability scan is needed.

Structure (Figure 3): a module roots an assembly tree; base (leaf) assemblies
reference composite parts; each composite part owns a document and
``NumAtomicPerComp`` atomic parts; each atomic part owns
``NumConnPerAtomic`` connection objects pointing at other atomic parts of the
same composite. Connections carry no back-pointer to their source — the
source owns them — so death cascades are acyclic and partitioned collection
can always reclaim them (possibly over several collections, as floating
garbage drains).

All node classes use identity equality (``eq=False``): the graph is cyclic
through back-references and nodes are mutable bookkeeping records, not
values.

Two bookkeeping invariants keep every structural operation proportional to
its own work: ``CompositeNode.parts`` holds only alive parts (deletion
removes the part), and an alive part's ``out_conns`` and ``in_conns`` hold
only alive connections (a connection is unlinked from both ends when it
dies or its source part dies). Nothing ever re-filters by ``dead``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.oo7.config import OO7Config
from repro.storage.object_model import ObjectId, ObjectKind
from repro.events import (
    CreateEvent,
    PointerWriteEvent,
    RootEvent,
    TraceEvent,
)


@dataclass(eq=False)
class ConnectionNode:
    """A connection object: owned by ``src`` (slot ``slot``), targets ``dst``."""

    oid: ObjectId
    src: "AtomicPartNode"
    dst: "AtomicPartNode"
    slot: str
    dead: bool = False


@dataclass(eq=False)
class AtomicPartNode:
    """An atomic part: owned by its composite via slot ``slot``."""

    oid: ObjectId
    composite: "CompositeNode"
    slot: str
    is_root_part: bool = False
    out_conns: list[ConnectionNode] = field(default_factory=list)
    in_conns: list[ConnectionNode] = field(default_factory=list)
    next_conn_slot: int = 0
    dead: bool = False

    def alive_out_conns(self) -> list[ConnectionNode]:
        """A copy of ``out_conns``, which holds only alive connections."""
        return list(self.out_conns)

    def alive_in_conns(self) -> list[ConnectionNode]:
        """A copy of ``in_conns``, which holds only alive connections."""
        return list(self.in_conns)


@dataclass(eq=False)
class CompositeNode:
    """A composite part: owns a document and a set of atomic parts."""

    oid: ObjectId
    index: int
    doc_oid: ObjectId
    parts: list[AtomicPartNode] = field(default_factory=list)
    free_part_slots: list[str] = field(default_factory=list)
    next_part_slot: int = 0

    def alive_parts(self) -> list[AtomicPartNode]:
        """A copy of ``parts``, which holds only alive parts."""
        return list(self.parts)

    def deletable_parts(self) -> list[AtomicPartNode]:
        """Alive parts that may be deleted (the root part always stays)."""
        return [p for p in self.parts if not p.is_root_part]

    @property
    def root_part(self) -> AtomicPartNode:
        for part in self.parts:
            if part.is_root_part:
                return part
        raise RuntimeError(f"composite {self.oid} has no root part")


@dataclass(eq=False)
class AssemblyNode:
    """One node of the assembly hierarchy."""

    oid: ObjectId
    level: int  # 0 = root assembly
    children: list["AssemblyNode"] = field(default_factory=list)
    composites: list[CompositeNode] = field(default_factory=list)


@dataclass(eq=False)
class ModuleNode:
    """One module: a database root with its manual and assembly tree."""

    oid: ObjectId
    manual_oid: ObjectId
    root_assembly: Optional[AssemblyNode] = None
    assemblies: list[AssemblyNode] = field(default_factory=list)
    composites: list[CompositeNode] = field(default_factory=list)

    def base_assemblies(self) -> list[AssemblyNode]:
        """This module's leaf assemblies, in creation order."""
        if not self.assemblies:
            return []
        leaf_level = max(a.level for a in self.assemblies)
        return [a for a in self.assemblies if a.level == leaf_level]


class Oo7Graph:
    """Builds and mutates an OO7 database, emitting trace events.

    Args:
        config: Database parameters.
        rng: Random source for all structural choices (connection targets,
            assembly wiring, part placement in slots). Supplying the RNG lets
            an application share one seed across generation and reorganisation
            phases.
    """

    def __init__(self, config: OO7Config, rng: Optional[random.Random] = None) -> None:
        self.config = config
        self.rng = rng or random.Random(config.seed)
        self._next_oid: ObjectId = 1
        self.modules: list[ModuleNode] = []
        self.assemblies: list[AssemblyNode] = []
        self.composites: list[CompositeNode] = []
        #: Object sizes by oid, for trace statistics and tests.
        self.object_sizes: dict[ObjectId, int] = {}

    # Convenience accessors for the (very common) single-module case.

    @property
    def module_oid(self) -> Optional[ObjectId]:
        return self.modules[0].oid if self.modules else None

    @property
    def manual_oid(self) -> Optional[ObjectId]:
        return self.modules[0].manual_oid if self.modules else None

    @property
    def root_assembly(self) -> Optional[AssemblyNode]:
        return self.modules[0].root_assembly if self.modules else None

    # ------------------------------------------------------------------
    # Identity and bookkeeping helpers
    # ------------------------------------------------------------------

    def _new_oid(self, size: int) -> ObjectId:
        oid = self._next_oid
        self._next_oid += 1
        self.object_sizes[oid] = size
        return oid

    def alive_atomic_parts(self) -> list[AtomicPartNode]:
        """All alive atomic parts, in composite order."""
        parts: list[AtomicPartNode] = []
        for composite in self.composites:
            parts.extend(composite.alive_parts())
        return parts

    def alive_connection_count(self) -> int:
        return sum(
            len(part.out_conns)
            for composite in self.composites
            for part in composite.parts
        )

    # ------------------------------------------------------------------
    # GenDB: initial database generation
    # ------------------------------------------------------------------

    def generate(self) -> Iterator[TraceEvent]:
        """Emit the GenDB event stream, building the logical graph as it goes.

        Ordering is chosen so every created object is referenced from the
        rooted graph within at most two subsequent events (the simulator's
        allocation pinning covers the gap); a collection may therefore fire
        at any point during generation without reclaiming live data.
        """
        for _module_index in range(self.config.num_modules):
            yield from self._generate_module()

    def _generate_module(self) -> Iterator[TraceEvent]:
        cfg = self.config
        # Module (a database root) and its manual.
        module = ModuleNode(
            oid=self._new_oid(cfg.module_size),
            manual_oid=0,  # assigned below
        )
        self.modules.append(module)
        yield CreateEvent(module.oid, cfg.module_size, ObjectKind.MODULE)
        yield RootEvent(module.oid)
        module.manual_oid = self._new_oid(cfg.manual_size)
        yield CreateEvent(module.manual_oid, cfg.manual_size, ObjectKind.MANUAL)
        yield PointerWriteEvent(module.oid, "manual", module.manual_oid)

        yield from self._generate_assembly_tree(module)
        yield from self._generate_composites(module)
        yield from self._wire_extra_assembly_slots(module)

    def _generate_assembly_tree(self, module: ModuleNode) -> Iterator[TraceEvent]:
        cfg = self.config
        root = AssemblyNode(oid=self._new_oid(cfg.assembly_size), level=0)
        module.root_assembly = root
        module.assemblies.append(root)
        self.assemblies.append(root)
        yield CreateEvent(root.oid, cfg.assembly_size, ObjectKind.ASSEMBLY)
        yield PointerWriteEvent(module.oid, "assembly", root.oid)

        frontier = [root]
        for level in range(1, cfg.num_assm_levels):
            next_frontier: list[AssemblyNode] = []
            for parent in frontier:
                for child_index in range(cfg.num_assm_per_assm):
                    child = AssemblyNode(oid=self._new_oid(cfg.assembly_size), level=level)
                    parent.children.append(child)
                    module.assemblies.append(child)
                    self.assemblies.append(child)
                    next_frontier.append(child)
                    yield CreateEvent(child.oid, cfg.assembly_size, ObjectKind.ASSEMBLY)
                    yield PointerWriteEvent(parent.oid, f"sub{child_index}", child.oid)
            frontier = next_frontier

    def base_assemblies(self) -> list[AssemblyNode]:
        """Leaf assemblies across all modules, in creation order."""
        leaf_level = self.config.num_assm_levels - 1
        return [a for a in self.assemblies if a.level == leaf_level]

    def _generate_composites(self, module: ModuleNode) -> Iterator[TraceEvent]:
        """Create a module's composites, linking each into one of the
        module's base assemblies immediately.

        Every composite gets a guaranteed "primary" base-assembly slot (dealt
        round-robin) so none is accidentally unreachable; remaining slots are
        wired randomly afterwards in :meth:`_wire_extra_assembly_slots`.
        """
        cfg = self.config
        bases = module.base_assemblies()
        for index in range(cfg.num_comp_per_module):
            base = bases[index % len(bases)]
            slot = f"comp{len(base.composites)}"

            doc_oid = self._new_oid(cfg.document_size)
            yield CreateEvent(doc_oid, cfg.document_size, ObjectKind.DOCUMENT)
            composite = CompositeNode(
                oid=self._new_oid(cfg.composite_part_size), index=index, doc_oid=doc_oid
            )
            module.composites.append(composite)
            self.composites.append(composite)
            yield CreateEvent(
                composite.oid,
                cfg.composite_part_size,
                ObjectKind.COMPOSITE_PART,
                pointers=(("doc", doc_oid),),
            )
            yield PointerWriteEvent(base.oid, slot, composite.oid)
            base.composites.append(composite)

            yield from self._generate_atomic_parts(composite)

    def _generate_atomic_parts(self, composite: CompositeNode) -> Iterator[TraceEvent]:
        cfg = self.config
        # First all parts (so connection targets exist), then the connections.
        for part_index in range(cfg.num_atomic_per_comp):
            part = self._create_part_node(composite, is_root=(part_index == 0))
            yield from self._emit_part_creation(part)
        parts = composite.alive_parts()
        for position, part in enumerate(parts):
            # One ring connection keeps the conn-graph connected for DFS...
            ring_target = parts[(position + 1) % len(parts)]
            targets = [ring_target]
            # ...plus random same-composite targets for the rest.
            targets.extend(
                self._random_conn_target(part, parts)
                for _ in range(cfg.num_conn_per_atomic - 1)
            )
            for target in targets:
                yield from self._emit_connection(part, target)

    def _random_conn_target(
        self, part: AtomicPartNode, candidates: list[AtomicPartNode]
    ) -> AtomicPartNode:
        """A random connection target in the same composite, never ``part``."""
        while True:
            target = self.rng.choice(candidates)
            if target is not part:
                return target

    def _wire_extra_assembly_slots(self, module: ModuleNode) -> Iterator[TraceEvent]:
        """Fill a module's remaining base-assembly slots with its own
        composites, chosen at random."""
        cfg = self.config
        for base in module.base_assemblies():
            while len(base.composites) < cfg.num_comp_per_assm:
                composite = self.rng.choice(module.composites)
                slot = f"comp{len(base.composites)}"
                yield PointerWriteEvent(base.oid, slot, composite.oid)
                base.composites.append(composite)

    # ------------------------------------------------------------------
    # Part creation (shared by GenDB and the reorganisation phases)
    # ------------------------------------------------------------------

    def _create_part_node(self, composite: CompositeNode, is_root: bool = False) -> AtomicPartNode:
        if composite.free_part_slots:
            slot = composite.free_part_slots.pop()
        else:
            slot = f"part{composite.next_part_slot}"
            composite.next_part_slot += 1
        part = AtomicPartNode(
            oid=self._new_oid(self.config.atomic_part_size),
            composite=composite,
            slot=slot,
            is_root_part=is_root,
        )
        composite.parts.append(part)
        return part

    def _emit_part_creation(
        self, part: AtomicPartNode
    ) -> tuple[CreateEvent, PointerWriteEvent]:
        composite_oid = part.composite.oid
        return (
            CreateEvent(
                part.oid,
                self.config.atomic_part_size,
                ObjectKind.ATOMIC_PART,
                pointers=(("partOf", composite_oid),),
            ),
            PointerWriteEvent(composite_oid, part.slot, part.oid),
        )

    def _emit_connection(
        self, src: AtomicPartNode, dst: AtomicPartNode
    ) -> tuple[CreateEvent, PointerWriteEvent]:
        size = self.config.connection_size
        conn = ConnectionNode(
            oid=self._new_oid(size),
            src=src,
            dst=dst,
            slot=f"conn{src.next_conn_slot}",
        )
        src.next_conn_slot += 1
        src.out_conns.append(conn)
        dst.in_conns.append(conn)
        return (
            CreateEvent(
                conn.oid, size, ObjectKind.CONNECTION, pointers=(("to", dst.oid),)
            ),
            PointerWriteEvent(src.oid, conn.slot, conn.oid),
        )

    def insert_part(self, composite: CompositeNode) -> tuple[AtomicPartNode, list[TraceEvent]]:
        """Insert one new atomic part with fresh connections into ``composite``.

        Connection targets are random alive parts of the composite, so later
        insertions may target earlier ones (keeping in-degrees balanced over
        time, as in the OO7 structural-modification operation).

        Insertion also repairs connectivity deficits: a part whose
        connections all died because the composite was churned down to a
        single part (deletion had nothing left to retarget to) gets fresh
        connections once targets exist again.
        """
        degree = self.config.num_conn_per_atomic
        candidates = list(composite.parts)  # before the new part joins
        part = self._create_part_node(composite)
        events = list(self._emit_part_creation(part))
        for _ in range(degree):
            target = self._random_conn_target(part, candidates)
            events.extend(self._emit_connection(part, target))

        for deficient in candidates:
            if len(deficient.out_conns) >= degree:
                continue
            # Never empty: the new part is always a valid target.
            repair_targets = [p for p in composite.parts if p is not deficient]
            while len(deficient.out_conns) < degree:
                target = self._random_conn_target(deficient, repair_targets)
                events.extend(self._emit_connection(deficient, target))
        return part, events

    # ------------------------------------------------------------------
    # Document replacement
    # ------------------------------------------------------------------

    def replace_document(self, composite: CompositeNode) -> list[TraceEvent]:
        """Replace a composite's document with a freshly written one.

        This is §2.1's "a single overwrite may disconnect very large objects
        from the database, such as OO7 document nodes" made concrete: one
        pointer overwrite kills ``DocumentSize`` bytes at a stroke, giving
        the workload a second, much larger garbage-per-overwrite mode than
        atomic-part deletion.
        """
        old_doc = composite.doc_oid
        new_doc = self._new_oid(self.config.document_size)
        composite.doc_oid = new_doc
        return [
            CreateEvent(new_doc, self.config.document_size, ObjectKind.DOCUMENT),
            PointerWriteEvent(composite.oid, "doc", new_doc, dies=(old_doc,)),
        ]

    # ------------------------------------------------------------------
    # Part deletion
    # ------------------------------------------------------------------

    def delete_part(self, part: AtomicPartNode) -> list[TraceEvent]:
        """Delete an atomic part, emitting the disconnection events.

        The deletion first *retargets* every incoming connection: the
        neighbour's connection object survives, but its ``to`` pointer is
        overwritten to another alive part of the composite. Each retargeting
        is one pointer overwrite recorded against the dying part's partition
        — exactly where the garbage is about to appear — and keeps per-part
        out-degree at ``NumConnPerAtomic``, so the database's connection
        population is stationary across repeated reorganisations. Finally
        the composite's slot is cleared — the overwrite that kills the part
        itself together with its outgoing connections (they are reachable
        only through the part). This is how "overwriting the final pointer
        to an object or group of objects actually does create garbage" (§2).
        """
        if part.dead:
            raise ValueError(f"part {part.oid} is already dead")
        if part.is_root_part:
            raise ValueError(f"part {part.oid} is a composite root part and cannot be deleted")

        composite = part.composite
        parts = composite.parts
        events: list[TraceEvent] = []
        in_conns, part.in_conns = part.in_conns, []
        for conn in in_conns:
            source = conn.src
            replacement_targets = [
                p for p in parts if p is not source and p is not part
            ]
            if replacement_targets:
                target = self.rng.choice(replacement_targets)
                conn.dst = target
                target.in_conns.append(conn)
                events.append(PointerWriteEvent(conn.oid, "to", target.oid))
            else:
                # Degenerate composite: nothing left to point at — the
                # neighbour's connection dies with its target.
                conn.dead = True
                source.out_conns.remove(conn)
                events.append(
                    PointerWriteEvent(source.oid, conn.slot, None, dies=(conn.oid,))
                )

        out_dies = []
        out_conns, part.out_conns = part.out_conns, []
        for conn in out_conns:
            conn.dead = True
            conn.dst.in_conns.remove(conn)
            out_dies.append(conn.oid)

        events.append(
            PointerWriteEvent(
                composite.oid, part.slot, None, dies=(part.oid, *out_dies)
            )
        )
        part.dead = True
        parts.remove(part)
        composite.free_part_slots.append(part.slot)
        return events
