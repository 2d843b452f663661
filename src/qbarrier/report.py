"""Run reports: structured JSON plus a human-readable summary.

Status taxonomy: "solved" means a certificate was found and every condition
came back unsat; "unsolved" means no candidate survived (none found, or every
candidate refuted); "unknown" means a candidate was generated but could not
be adjudicated within the timeout. Reports are reproducible byte for byte for
a fixed (config, seed, solver) modulo the timing fields.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

EXIT_CODES = {"solved": 0, "unsolved": 1, "unknown": 2}
TOOL_ERROR_EXIT = 3


@dataclass
class RunReport:
    name: str
    status: str
    kind: str
    certificate: dict | None
    conditions: list[dict]
    generation_s: float
    verification_s: float
    samples: dict
    seed: int
    solver: str
    timeout_s: float
    terms_used: int | None = None
    rejections: list = field(default_factory=list)
    config_echo: dict = field(default_factory=dict)
    # per (terms, round) of the template search: LP rows, rows kept, HiGHS
    # calls, simplex iterations and outcome; counts, so they repeat at a seed
    lp: list = field(default_factory=list)

    def to_dict(self, with_times: bool = True) -> dict:
        """The report document; without times, it repeats at a seed."""
        conditions = self.conditions
        if not with_times:
            conditions = [
                {k: v for k, v in c.items() if k != "wall_s"} for c in conditions
            ]
        doc = {
            "name": self.name,
            "status": self.status,
            "kind": self.kind,
            "certificate": self.certificate,
            "conditions": conditions,
            "samples": self.samples,
            "seed": self.seed,
            "solver": self.solver,
            "timeout_s": self.timeout_s,
            "terms_used": self.terms_used,
            "rejections": self.rejections,
            "lp": self.lp,
            "config": self.config_echo,
        }
        if with_times:
            doc["generation_s"] = round(self.generation_s, 6)
            doc["verification_s"] = round(self.verification_s, 6)
        return doc

    def to_json(self, with_times: bool = True) -> str:
        return json.dumps(self.to_dict(with_times), indent=2, sort_keys=True) + "\n"

    def summary(self) -> str:
        lines = [
            f"job        : {self.name}",
            f"status     : {self.status}",
            f"generation : {self.generation_s:.3f} s",
            f"verification: {self.verification_s:.3f} s",
        ]
        if self.certificate:
            polys = self.certificate.get("polynomials")
            if polys:
                for i, p in enumerate(polys):
                    tag = f"B_{i}" if len(polys) > 1 else "B"
                    lines.append(f"{tag:<11}: {p}")
            elif "c" in self.certificate:
                lines.append(f"B          : {self.certificate['c']:+.5f}*phi")
            consts = self.certificate.get("constants") or {
                k: v
                for k, v in self.certificate.items()
                if k in ("gamma", "lam", "delta", "d", "eps", "k", "T")
            }
            if consts:
                lines.append(
                    "constants  : "
                    + ", ".join(f"{k}={v:.6g}" for k, v in sorted(consts.items()))
                )
        for cond in self.conditions:
            lines.append(
                f"  condition {cond['id']:<14} {cond['status']:<8}"
                f" ({cond['wall_s']:.3f} s)"
            )
        return "\n".join(lines) + "\n"

    def write(self, out_dir: str | Path):
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(self.to_json(), encoding="utf-8")
        (out / "report.txt").write_text(self.summary(), encoding="utf-8")
        if self.certificate is not None:
            (out / "certificate.json").write_text(
                json.dumps(self.certificate, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )


def conditions_doc(report) -> list[dict]:
    if report is None:
        return []
    return [
        {
            "id": v.condition_id,
            "status": v.status,
            "decider": v.decider,
            "wall_s": round(v.wall_s, 6),
            "model": v.model,
        }
        for v in report.verdicts
    ]
