"""Wrappers around the library's entry points for the traced run.

The library is not changed: ``Tracer.install`` replaces each entry point
with a timing wrapper at the place its callers look it up (a module
attribute or a class attribute) and ``uninstall`` puts the originals back.
Names a module imported from another module are patched in both places,
e.g. ``run_period`` in ``fath`` and in ``netsim``.

Every wrapped call pushes a frame; when it returns, its duration is
charged to the enclosing frame as child time, so a name's self time is its
duration minus the time its traced children took. Entry points called a few
times per operation also keep a span (id, parent id, request id, name,
start, end); the rest, which run up to millions of times per run, only add
to their counts and totals.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

from bionode import biometrics, fath, groups, lwe, netsim, slashing, vortex, zkp

# (owner, attribute, entry name, keep a span per call)
ENTRY_POINTS = [
    (slashing.Blacklist, "is_blacklisted", "slashing.is_blacklisted", False),
    (slashing.Blacklist, "slash", "slashing.slash", False),
    (netsim.Simulation, "authorized_roster", "netsim.authorized_roster", False),
    (netsim.Simulation, "renew_ticket", "netsim.renew_ticket", False),
    (netsim, "distribute_fees", "netsim.distribute_fees", True),
    (netsim, "run", "netsim.run", True),
    (fath, "run_period", "fath.run_period", True),
    (netsim, "run_period", "fath.run_period", True),
    (vortex.Vortex, "submit_proposal", "vortex.submit_proposal", True),
    (vortex.Vortex, "pool_vote", "vortex.pool_vote", False),
    (vortex.Vortex, "cast_vote", "vortex.cast_vote", False),
    (vortex.Vortex, "tally", "vortex.tally", True),
    (lwe, "poly_mul", "lwe.poly_mul", False),
    (lwe, "sample_gaussian_poly", "lwe.sample_gaussian_poly", False),
    (lwe, "lwe_encrypt", "lwe.lwe_encrypt", False),
    (lwe, "lwe_mul", "lwe.lwe_mul", False),
    (lwe, "lwe_decrypt", "lwe.lwe_decrypt", False),
    (lwe, "lwe_keygen", "lwe.lwe_keygen", True),
    (biometrics, "encrypted_match", "biometrics.encrypted_match", True),
    (groups, "encrypt_with_nonce", "groups.encrypt_with_nonce", False),
    (zkp, "encrypt_with_nonce", "groups.encrypt_with_nonce", False),
    (groups.GroupParams, "contains", "groups.contains", False),
    (zkp, "aggregate", "zkp.aggregate", True),
    (zkp, "logeq_prove", "zkp.logeq_prove", True),
    (zkp, "logeq_verify", "zkp.logeq_verify", True),
    (zkp, "prove_linear", "zkp.prove_linear", True),
    (zkp, "verify_linear", "zkp.verify_linear", True),
]


def _rebased(outcome) -> int:
    return 0 if outcome.kind == "none" else len(outcome.per_account_deltas)


# Counters read off an entry point's return value: name -> (entry, reader).
RESULT_COUNTERS = {"fath.accounts_rebased": ("fath.run_period", lambda r: _rebased(r[1]))}


class Tracer:
    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counters: Counter[str] = Counter()
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [child time, enclosing span id, request id]
        self._next_id = 0
        self._saved: list[tuple] = []

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def request(self, name: str, fn, *args):
        """Run one workload operation as the root span of a new request."""
        return self._wrap(name, fn, keep_span=True, root=True)(*args)

    def _wrap(self, name: str, fn, keep_span: bool, root: bool = False):
        stack = self._stack
        readers = [(c, read) for c, (entry, read) in RESULT_COUNTERS.items() if entry == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._new_id() if keep_span else None
            request = span_id if root or parent is None else parent[2]
            frame = [0.0, span_id if keep_span else (parent[1] if parent else None), request]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][0] += took
                self.calls[name] += 1
                self.total[name] += took
                self.self_time[name] += took - frame[0]
                if keep_span:
                    self.spans.append(
                        (span_id, parent[1] if parent else None, request, name, start, end)
                    )
            for counter, read in readers:
                self.counters[counter] += read(result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, keep_span in ENTRY_POINTS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, keep_span))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        keys = ("id", "parent", "request", "name", "start", "end")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
