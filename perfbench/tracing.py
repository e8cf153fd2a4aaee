"""Per-layer tracing of matshare from outside the package.

The tracer rebinds each traced function in every loaded ``matshare``
module that holds it, so a call made through ``from .algebra import
mat_mul`` in ``protocol`` or ``attack`` is seen as well as one made
inside ``algebra``.  Methods are patched on their class.  ``uninstall``
puts every original back.

Each wrapper records a span.  A span's self time is its duration minus
the time its child spans cover; the child's own bookkeeping (bit
lengths, counters) is charged to the child's outer interval, so neither
the parent's nor the child's self time includes it.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from itertools import chain
from time import perf_counter

# (module, attribute, span name); "Class.method" patches the class
SPANS = (
    ("algebra", "_inverse_parts", "algebra.inverse"),
    ("algebra", "mat_mul", "algebra.mat_mul"),
    ("algebra", "mat_vec_mul", "algebra.mat_vec_mul"),
    ("algebra", "freivalds_verify", "algebra.freivalds_verify"),
    ("algebra", "is_invertible", "algebra.is_invertible"),
    ("algebra", "sample_invertible_matrix", "algebra.sample_invertible_matrix"),
    ("dealer", "generate_instance", "dealer.generate_instance"),
    ("dealer", "compute_check_pairs", "dealer.compute_check_pairs"),
    ("protocol", "simulate_run", "protocol.simulate_run"),
    ("protocol", "run_verification", "protocol.run_verification"),
    ("protocol", "run_reconstruction", "protocol.run_reconstruction"),
    ("protocol", "recover_secret", "protocol.recover_secret"),
    ("protocol", "freivalds_audit", "protocol.freivalds_audit"),
    ("transport", "Network.send", "transport.send"),
    ("transport", "Network.broadcast", "transport.send"),
    ("attack", "exhaustive_search", "attack.exhaustive_search"),
    ("attack", "ratio_analysis", "attack.ratio_analysis"),
    ("cli", "main", "cli.main"),
    ("cli", "load_workspace", "cli.load_workspace"),
    ("cli", "canonical_json", "cli.encode"),
)

# calls counted without a span: too small or not a layer boundary
COUNTED = (
    ("algebra", "Matrix.__init__", "algebra.matrix_new"),
    ("cli", "_write", "cli.write"),
)


def entry_bits(x) -> int:
    """Bit length of an int entry, or of the wider part of a Fraction."""
    if isinstance(x, int):
        return x.bit_length()
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def max_bits(values) -> int:
    return max(map(entry_bits, values), default=0)


class Tracer:
    """Spans and counters for one traced pass over the matshare layers."""

    def __init__(self, ms):
        self.ms = ms
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.maxima = Counter()
        self.active = Counter()
        self.top_s = 0.0
        self._stack = []
        self._undo = []
        self._hooks = {
            "algebra.inverse": self._on_inverse,
            "algebra.mat_mul": self._on_mat_mul,
            "algebra.freivalds_verify": self._on_freivalds_verify,
            "dealer.generate_instance": self._on_generate_instance,
            "protocol.run_verification": self._on_run_verification,
            "protocol.run_reconstruction": self._on_run_reconstruction,
            "protocol.freivalds_audit": self._on_freivalds_audit,
            "transport.send": self._on_send,
            "attack.exhaustive_search": self._on_exhaustive_search,
            "attack.ratio_analysis": self._on_ratio_analysis,
            "cli.write": self._on_write,
        }

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        encoders = [
            ("cli", attr, "cli.encode")
            for attr in sorted(vars(self.ms.cli))
            if attr.endswith("_to_json")
        ]
        for module, attr, name in SPANS + tuple(encoders):
            self._rebind(module, attr, lambda fn, name=name: self._span(name, fn))
        for module, attr, name in COUNTED:
            self._rebind(module, attr, lambda fn, name=name: self._counter(name, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _rebind(self, module: str, attr: str, make) -> None:
        owner = getattr(self.ms, module)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            self._patch(owner, attr, make(vars(owner)[attr]))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "matshare" or mod_name.startswith("matshare."):
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span(self, name: str, fn):
        stack, calls, self_s, active = self._stack, self.calls, self.self_s, self.active
        hook = self._hooks.get(name)

        def wrapper(*args, **kwargs):
            outer0 = perf_counter()
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                active[name] -= 1
                stack.pop()
                calls[name] += 1
                self_s[name] += (t1 - t0) - frame[0]
            if hook is not None:
                hook(args, result)
            covered = perf_counter() - outer0
            if stack:
                stack[-1][0] += covered
            else:
                self.top_s += covered
            return result

        return wrapper

    def _counter(self, name: str, fn):
        calls = self.calls
        hook = self._hooks.get(name)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[name] += 1
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # -- bookkeeping hooks -------------------------------------------------

    def _raise_max(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def _on_inverse(self, args, result) -> None:
        self._raise_max("inverse.in_bits", max_bits(chain.from_iterable(args[0].rows)))
        self._raise_max("inverse.den_bits", entry_bits(result[1]))

    def _on_mat_mul(self, args, result) -> None:
        self._raise_max("mat_mul.max_bits", max_bits(chain.from_iterable(result.rows)))
        if self.active["attack.exhaustive_search"]:
            self.counts["search_mat_mul"] += 1

    def _on_freivalds_verify(self, args, result) -> None:
        if self.active["protocol.freivalds_audit"]:
            self.counts["audit_verify_calls"] += 1

    def _on_generate_instance(self, args, result) -> None:
        self._raise_max("secret_bits", max_bits(chain.from_iterable(result[0].secret.rows)))

    def _on_run_verification(self, args, result) -> None:
        if not result[0]:
            self.counts["verdicts_false"] += 1

    def _on_run_reconstruction(self, args, result) -> None:
        for envelope in self.ms.transport.broadcast_matrices(result[1].envelopes):
            self._raise_max(
                "reveal_max_bits", max_bits(chain.from_iterable(envelope.payload.rows))
            )

    def _on_freivalds_audit(self, args, result) -> None:
        reveals = self.ms.transport.broadcast_matrices(args[0].envelopes)
        self.counts["audit_pairs"] += max(len(reveals) - 1, 0)

    def _on_send(self, args, result) -> None:
        # send(self, sender, recipient, visibility, payload) / broadcast(self, sender, payload)
        self.counts["envelopes"] += 1
        if len(args) == 3 or args[3] == self.ms.transport.PUBLIC:
            self.counts["public_envelopes"] += 1
            self.counts["public_payload_bits"] += self._payload_bits(args[-1])

    def _payload_bits(self, payload) -> int:
        algebra = self.ms.algebra
        if isinstance(payload, algebra.Matrix):
            return sum(map(entry_bits, chain.from_iterable(payload.rows)))
        if isinstance(payload, algebra.Vector):
            return sum(map(entry_bits, payload.entries))
        if isinstance(payload, algebra.BinaryVector):
            return len(payload.bits)
        return 1

    def _on_exhaustive_search(self, args, result) -> None:
        self.counts["nodes"] += result.nodes_explored

    def _on_ratio_analysis(self, args, result) -> None:
        self.counts["ratio_hits"] += len(result)
        self.counts["ratio_identified"] += sum(h.matrix_index is not None for h in result)

    def _on_write(self, args, result) -> None:
        self.counts["write_bytes"] += args[0].stat().st_size

    # -- report ------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric by name; counts are exact, self times in seconds."""
        calls, self_s, counts, maxima = self.calls, self.self_s, self.counts, self.maxima
        out = {}
        for name in (
            "algebra.inverse",
            "algebra.mat_mul",
            "algebra.mat_vec_mul",
            "algebra.freivalds_verify",
            "algebra.is_invertible",
            "dealer.generate_instance",
            "protocol.simulate_run",
            "protocol.run_verification",
            "protocol.run_reconstruction",
            "protocol.recover_secret",
            "protocol.freivalds_audit",
            "transport.send",
            "attack.exhaustive_search",
            "attack.ratio_analysis",
            "cli.main",
            "cli.load_workspace",
        ):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in (
            "algebra.sample_invertible_matrix",
            "dealer.compute_check_pairs",
            "cli.encode",
        ):
            out[f"{name}.self_s"] = self_s[name]
        out["algebra.inverse.in_bits"] = maxima["inverse.in_bits"]
        out["algebra.inverse.den_bits"] = maxima["inverse.den_bits"]
        out["algebra.mat_mul.max_bits"] = maxima["mat_mul.max_bits"]
        out["algebra.matrix_new.calls"] = calls["algebra.matrix_new"]
        out["dealer.secret_bits"] = maxima["secret_bits"]
        out["protocol.reveal_max_bits"] = maxima["reveal_max_bits"]
        out["protocol.verdicts_false"] = counts["verdicts_false"]
        out["protocol.audit_hit_ratio"] = _ratio(counts["audit_pairs"], counts["audit_verify_calls"])
        out["transport.envelopes"] = counts["envelopes"]
        out["transport.public_envelopes"] = counts["public_envelopes"]
        out["transport.public_payload_bits"] = counts["public_payload_bits"]
        out["attack.nodes"] = counts["nodes"]
        out["attack.mat_mul_per_node"] = _ratio(counts["search_mat_mul"], counts["nodes"])
        out["attack.ratio_identified_ratio"] = _ratio(counts["ratio_identified"], counts["ratio_hits"])
        out["cli.write_bytes"] = counts["write_bytes"]
        return out


def _ratio(num: int, den: int) -> float:
    """num / den, or 0 when the layer did no work in this workload."""
    return num / den if den else 0.0
