"""Columns: per (server, content) cache/update decision sequences.

A column is a sequence of (cached, updated) flag pairs over the horizon. Legal
patterns per slot are (1,1) update, (1,0) keep cached, (0,0) absent; (0,1) is
impossible. A (1,0) slot needs a cached predecessor so the age is derivable,
and a copy cached in slot 1 must have been downloaded there. The solve path
holds columns as bool [column, cached/updated, slot] flag arrays, which
``column_states`` renders as state strings; tuples remain only in the exact
oracle's ``enumerate_columns``.

Each column carries a standalone cost: its backhaul update cost plus the
age/download cost of the owning server's single-choice requests, each settled
from the copy held at its deadline by ``costs.scr_settlement``. Pools keep one
ordered set of distinct columns per (server, content), seeded with the
all-zero column. A ``ColumnPool`` holds its entries as arrays indexed by
serial number (pair, cost, flags, covered services) plus the live serials in
master order, and makes every batch of entries in one array pass, so that the
master, the capacity check, the likelihoods, the purge and the NRS pin
(``ColumnPool.pin``, by pool position) read arrays with no per-entry Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .costs import ABSENT, CACHED, UPDATED, CAPACITY_EPS, SettlementMode, scr_settlement
from .instance import RequestIndex

Column = tuple[tuple[int, int], ...]

ENUMERATION_CAP = 12  # 3^T growth; refuse anything past desk scale

FREE = -1  # the value of a slot left unfixed in a fixing array


class UnfixablePoolError(RuntimeError):
    """No column can satisfy the accumulated fixings for some (server, content)."""


def zero_column(horizon: int) -> Column:
    return ((0, 0),) * horizon


def column_states(flags: np.ndarray) -> list[str]:
    """Render bool flag rows ([column, cached/updated, slot]) as state
    strings: 'U' update, 'C' cached, 'A' absent."""
    code = np.where(flags[:, 1], 2, flags[:, 0].astype(np.int8))
    return ["".join(row) for row in np.array([ABSENT, CACHED, UPDATED])[code].tolist()]


def enumerate_columns(horizon: int) -> list[Column]:
    """All valid columns for the horizon; exponential, guarded by
    ``ENUMERATION_CAP``."""
    if horizon > ENUMERATION_CAP:
        raise ValueError(
            f"refusing to enumerate columns for horizon {horizon} > {ENUMERATION_CAP}")
    cols: list[Column] = [()]
    for t in range(horizon):
        nxt: list[Column] = []
        for col in cols:
            cached_before = t > 0 and col[-1][0] == 1
            nxt.append(col + ((0, 0),))
            nxt.append(col + ((1, 1),))
            if cached_before:
                nxt.append(col + ((1, 0),))
        cols = nxt
    return cols


def anchor_slots(gamma: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """For fixing rows [..., slot] (1, 0 or ``FREE``), the latest slot at or
    before each slot that is not fixed un-updated, with no slot fixed
    uncached from there through it; -1 where there is none. A copy cached
    in a slot can have its age derived only from an update at such a slot."""
    slot = np.arange(gamma.shape[-1])
    opened = np.maximum.accumulate(np.where(omega != 0, slot, -1), axis=-1)
    cut = np.maximum.accumulate(np.where(gamma == 0, slot, -1), axis=-1)
    return np.where(opened > cut, opened, -1)


def canonical_flags(gamma: np.ndarray, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The minimal column of each fixing row [pair, slot] as bool [pair,
    cached/updated, slot] flags, and whether the row has one at all.

    The column caches exactly the slots fixed cached or updated and updates
    where fixed updated; a run head (a cached slot after an uncached one)
    that is not updated gets an update at its anchor slot and stays cached
    from there through the head. The anchors read the fixings alone, so
    every head is resolved at once. A row has no column when a slot is fixed
    updated but uncached, or when a run head that needs an update has no
    anchor."""
    anchor = anchor_slots(gamma, omega)
    q, p = (gamma == 1) | (omega == 1), omega == 1
    head = q & ~np.concatenate([np.zeros_like(q[:, :1]), q[:, :-1]], axis=1)
    lone = head & ~p
    fixable = ~((p & (gamma == 0)) | (lone & (anchor < 0))).any(axis=1)
    rows, heads = np.nonzero(lone & fixable[:, None])
    p[rows, anchor[rows, heads]] = True
    # a slot is cached when a lone head at or after it anchors at or before it
    start = np.where(lone, anchor, gamma.shape[1])
    q |= np.minimum.accumulate(start[:, ::-1], axis=1)[:, ::-1] <= np.arange(gamma.shape[1])
    return np.stack([q, p], axis=1), fixable


def concat_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges lo[m]:hi[m] laid end to end: for every element, the number
    m of its range and its value."""
    n = hi - lo
    m = np.arange(len(n)).repeat(n)
    return m, np.arange(len(m)) + (lo - n.cumsum() + n).repeat(n)


@dataclass
class PoolArrays:
    """A pool's live entries in pool order: per entry its serial, pair
    number, server, content and size, and its flags as a bool [entry,
    cached/updated, slot] array (slot t at index t - 1)."""

    serial: np.ndarray
    pair: np.ndarray
    server: np.ndarray
    content: np.ndarray
    size: np.ndarray
    flags: np.ndarray


class ColumnPool:
    """Evolving per-(server, content) column sets with cached standalone
    costs, held as arrays.

    Every entry the pool makes gets the next serial number, so an entry keeps
    one identity for the pool's life, whatever entries are purged around it.
    By serial the pool keeps each entry's pair number (``pair``; the request
    index numbers the pairs, ``pairs[k]`` is pair k), its
    standalone cost (``cost``), its flags ([serial, cached/updated, slot],
    ``flags``) and the service positions it covers, in rank order
    (``svc[svc_start[s]:svc_start[s + 1]]``). ``order`` lists the live
    serials in pool order, which is the master's column order: by pair, then
    by insertion. ``counts`` holds the live entries of each pair.

    Entries are made in batches (``_make``): the zero columns of
    ``initial``, the columns of ``add`` (a round's priced candidates)
    and the canonical columns of a purge. A column is pooled at most once per
    pair. The solve path reads the arrays (``arrays``, ``covered``)."""

    def __init__(self, idx: RequestIndex, mode: SettlementMode):
        """An empty pool of the instance ``idx`` indexes, costed in ``mode``;
        ``initial`` gives every pair its zero column."""
        self.inst, self.idx, self.mode = idx.inst, idx, mode
        self.pairs, self.pair_server, self.pair_content = (
            idx.pairs, idx.pair_server, idx.pair_content)
        self.settlement = scr_settlement(idx, mode)  # [single-choice request, age held]
        self.pair = np.empty(0, dtype=np.int64)
        self.cost = np.empty(0)
        self.flags = np.empty((0, 2, idx.inst.horizon), dtype=bool)
        self.svc = np.empty(0, dtype=np.int64)
        self.svc_start = np.zeros(1, dtype=np.int64)
        self.order = np.empty(0, dtype=np.int64)
        self.counts = np.zeros(len(self.pairs), dtype=np.int64)
        # by serial, the (pair number, flag bytes) key; the set holds the
        # keys of the live entries
        self._keys: list[tuple[int, bytes]] = []
        self._live: set[tuple[int, bytes]] = set()
        self._views: dict = {}  # what is derived from ``order``, until it changes

    @staticmethod
    def initial(idx: RequestIndex, mode: SettlementMode) -> "ColumnPool":
        pool = ColumnPool(idx, mode)
        pool._make(np.arange(len(pool.pairs)),
                   np.zeros((len(pool.pairs), 2, idx.inst.horizon), bool))
        return pool

    @property
    def num_serials(self) -> int:
        """Serials handed out so far."""
        return len(self.pair)

    def _key(self, ks: np.ndarray, flags: np.ndarray) -> list[tuple[int, bytes]]:
        raw, n = np.ascontiguousarray(flags).tobytes(), 2 * self.inst.horizon
        return [(k, raw[m * n : m * n + n]) for m, k in enumerate(ks.tolist())]

    def _make(self, ks: np.ndarray, flags: np.ndarray, keys: Optional[list] = None) -> None:
        """Make the entries of the columns ``flags`` ([column, cached/updated,
        slot]) of the pairs ``ks`` (their ``_key``s when given) in one batch,
        number them in that order and put each at the end of its pair.

        The cost adds the update cost, then each single-choice request's
        settlement in the request index's order; cost and coverage are the
        standalone cost S and the settlement coverage of the paper, as
        ``reference.make_entry`` in the tests computes them, in one array pass
        over the batch (``_entries``)."""
        M = len(ks)
        cost, svc, n_svc = self._entries(ks, flags)
        serials = np.arange(self.num_serials, self.num_serials + M)
        self.pair = np.concatenate([self.pair, ks])
        self.cost = np.concatenate([self.cost, cost])
        self.flags = np.concatenate([self.flags, flags])
        self.svc = np.concatenate([self.svc, svc])
        self.svc_start = np.concatenate([self.svc_start, self.svc_start[-1] + np.cumsum(n_svc)])
        keys = self._key(ks, flags) if keys is None else keys
        self._keys.extend(keys)
        self._live.update(keys)
        # each at the end of its pair, in batch order within a pair
        by = np.argsort(ks, kind="stable")
        at = np.cumsum(self.counts)[ks[by]] + np.arange(M)  # places in the new order
        order = np.empty(len(self.order) + M, dtype=np.int64)
        old = np.ones(len(order), dtype=bool)
        old[at] = False
        order[old], order[at] = self.order, serials[by]
        self.order = order
        self.counts += np.bincount(ks, minlength=len(self.counts))
        self._views.clear()

    def _entries(self, ks: np.ndarray, flags: np.ndarray) -> tuple:
        """Every column's cost, the service positions each covers (laid end
        to end, each column's in rank order) and how many."""
        idx, M, T = self.idx, len(ks), self.inst.horizon
        q, p = flags[:, 0], flags[:, 1]
        slot = np.arange(T)
        # the copy's age in every slot, -1 where absent: a valid column's
        # cached run starts at an update
        age = np.where(q, slot - np.maximum.accumulate(np.where(p, slot, -1), axis=1), -1)
        content = self.pair_content[ks]
        m, j = concat_ranges(idx.scr_start[ks], idx.scr_start[ks + 1])
        held = age[m, idx.scr_deadline[j] - 1]
        # an absent copy (held -1) reads the last age's settlement: masked
        settled = np.where(held < 0, idx.cloud[content[m]], self.settlement[j, held])
        update = self.inst.cost.beta * self.inst.sizes()[content] * np.count_nonzero(p, axis=1)
        # bincount adds in input order: each column's update cost, then its
        # settlements one by one
        cost = np.bincount(np.concatenate([np.arange(M), m]),
                           np.concatenate([update, settled]), minlength=M)

        m, j = concat_ranges(idx.mcr_start[ks], idx.mcr_start[ks + 1])
        origin, zero = idx.mcr_origin[j], idx.mcr_svc[j]
        arrival = age[m, origin - 1]  # the age held in the request's origin slot
        ups = np.zeros((M, T + 1), dtype=np.int64)  # updates in slots 1..t
        np.cumsum(p, axis=1, out=ups[:, 1:])
        fresh = ups[m, idx.mcr_deadline[j]] > ups[m, origin - 1]  # an update in the window
        aged = arrival >= 1
        row = np.concatenate([m[aged], m[fresh]])
        svc = np.concatenate([zero[aged] + arrival[aged], zero[fresh]])
        by = np.lexsort((idx.svc_rank[svc], row))
        return cost, svc[by], np.bincount(row, minlength=M)

    def _reorder(self, order: np.ndarray, dropped: np.ndarray) -> None:
        """Make ``order`` the pool order, the entries ``dropped`` gone."""
        self._live.difference_update([self._keys[s] for s in dropped.tolist()])
        self.order = order
        self.counts = np.bincount(self.pair[order], minlength=len(self.counts))
        self._views.clear()

    def starts(self) -> np.ndarray:
        """The position in ``order`` where each pair's entries begin, and the
        entry count at the end."""
        if "starts" not in self._views:
            self._views["starts"] = np.concatenate([[0], np.cumsum(self.counts)])
        return self._views["starts"]

    def pooled(self, ks: np.ndarray, flags: np.ndarray) -> list[bool]:
        """Whether the columns ``flags`` of the pairs ``ks`` are pooled."""
        return [key in self._live for key in self._key(ks, flags)]

    def add(self, ks: np.ndarray, flags: np.ndarray) -> int:
        """Insert the valid columns ``flags`` ([column, cached/updated, slot])
        of the pairs numbered ``ks`` that are not pooled yet, in one batch, in
        that order; returns how many were added."""
        ks = np.asarray(ks, dtype=np.int64)
        made = self._key(ks, flags)
        new, batch = [], set()
        for n, key in enumerate(made):
            if key not in self._live and key not in batch:
                batch.add(key)
                new.append(n)
        if len(new) < len(ks):
            ks, flags, made = ks[new], flags[new], [made[n] for n in new]
        if new:
            self._make(ks, flags, made)
        return len(new)

    def pin(self, j: int) -> np.ndarray:
        """Keep the entry at pool position j as its pair's only entry;
        returns its flags ([cached/updated, slot])."""
        s = self.order[j]
        start, end = self.starts()[self.pair[s] : self.pair[s] + 2]
        block = self.order[start:end]
        self._reorder(np.concatenate([self.order[:start], [s], self.order[end:]]),
                      block[block != s])
        return self.flags[s]

    def total_columns(self) -> int:
        return len(self.order)

    def arrays(self) -> PoolArrays:
        if "arrays" not in self._views:
            pair = self.pair[self.order]
            content = self.pair_content[pair]
            self._views["arrays"] = PoolArrays(
                self.order, pair, self.pair_server[pair], content, self.inst.sizes()[content],
                self.flags[self.order])
        return self._views["arrays"]

    def covered(self, serials: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The service positions the entries ``serials`` cover, laid end to
        end in that order, and for each the position of its entry."""
        m, j = concat_ranges(self.svc_start[serials], self.svc_start[serials + 1])
        return self.svc[j], m

    def purge_incompatible(self, gamma, omega, headroom) -> int:
        """Drop columns that contradict fixed cache/update values or that no
        longer fit the capacity left after fixed-to-one consumption.

        ``gamma``/``omega`` are the int8 fixing arrays over [server, content,
        slot] (1, 0 or ``FREE``); ``headroom`` is the [cache/backhaul, server,
        slot] array of the capacity left beyond fixed users
        (``RoundingState.headroom``).
        Every pool is left holding the canonical minimal-footprint column of
        its fixings: individually compatible survivors may still be jointly
        over capacity, and the canonical point is the master's guaranteed
        feasible fallback. ``canonical_flags`` derives every pair's canonical
        column in one array pass: a cached run whose head is not fixed
        updated opens with an update at the head's ``anchor_slots`` slot.
        The columns a pool lacks are made in one batch, in pair order.
        """
        a = self.arrays()
        fixed = np.stack([gamma, omega], axis=2)[a.server, a.content, :, 1:]
        left = headroom.transpose(1, 0, 2)[a.server, :, 1:]
        keep = ~np.where(fixed == FREE, a.flags & (a.size[:, None, None] > left + CAPACITY_EPS),
                         a.flags != fixed).any(axis=(1, 2))

        canon, fixable = canonical_flags(gamma[self.pair_server, self.pair_content, 1:],
                                         omega[self.pair_server, self.pair_content, 1:])
        if not fixable.all():
            h, i = self.pairs[np.flatnonzero(~fixable)[0]]
            raise UnfixablePoolError(
                f"no column can satisfy the fixings for server {h}, content {i}"
            )
        # the pairs where a kept entry already is the canonical column
        matched = keep & (a.flags == canon[a.pair]).all(axis=(1, 2))
        has = np.zeros(len(self.pairs), dtype=bool)
        has[a.pair[matched]] = True
        self._reorder(self.order[keep], self.order[~keep])
        lacking = np.flatnonzero(~has)
        if len(lacking):
            self._make(lacking, canon[lacking])
        return int(len(keep) - np.count_nonzero(keep))


def _flags_of(cols: Sequence[Column]) -> np.ndarray:
    """Columns as a bool [column, cached/updated, slot] array."""
    return np.array(cols, dtype=bool).reshape(len(cols), -1, 2).transpose(0, 2, 1)
