"""Treatment/control campaign reporting with a two-proportion z-test."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..ingest import write_csv


def two_proportion_z(x1: int, n1: int, x2: int, n2: int) -> tuple[float, float]:
    """Pooled-variance two-proportion z statistic and two-sided p-value."""
    if n1 <= 0 or n2 <= 0:
        raise ValueError("group sizes must be positive")
    if not (0 <= x1 <= n1 and 0 <= x2 <= n2):
        raise ValueError("conversions exceed group size")
    pooled = (x1 + x2) / (n1 + n2)
    var = pooled * (1 - pooled) * (1 / n1 + 1 / n2)
    if var == 0:
        return 0.0, 1.0
    z = (x1 / n1 - x2 / n2) / math.sqrt(var)
    return z, math.erfc(abs(z) / math.sqrt(2))


@dataclass
class CampaignOutcome:
    treatment_ids: list[str]
    control_ids: list[str]
    treatment_conversions: int
    control_conversions: int
    treatment_renewals: int
    control_renewals: int
    z: float
    p_value: float

    @property
    def treatment_rate(self) -> float:
        return self.treatment_conversions / len(self.treatment_ids)

    @property
    def control_rate(self) -> float:
        return self.control_conversions / len(self.control_ids)

    @property
    def treatment_renewal_rate(self) -> float | None:
        return self.treatment_renewals / self.treatment_conversions if self.treatment_conversions else None

    @property
    def control_renewal_rate(self) -> float | None:
        return self.control_renewals / self.control_conversions if self.control_conversions else None


def run_campaign(
    table,
    model,
    treatment_size: int,
    control_ids: list[str],
    outcomes: dict[str, dict],
) -> CampaignOutcome:
    """Score-ranked treatment selection with the control group excluded first.

    Treatment is the top treatment_size candidates by model score after
    removing every control id from the ranking pool (score ties break by
    id).  outcomes maps each group member's id to {"converted": bool,
    "renewed": bool}; renewals only count among converters.
    """
    control = list(dict.fromkeys(control_ids))
    control_set = set(control)
    missing = control_set - set(table.ids)
    if missing:
        raise ValueError(f"control ids not in table: {sorted(missing)[:5]}")
    candidates = [i for i, sid in enumerate(table.ids) if sid not in control_set]
    if treatment_size < 1 or treatment_size > len(candidates):
        raise ValueError(f"treatment_size must be in [1, {len(candidates)}]")
    scores = model.predict_proba(table.X)
    ranked = sorted(candidates, key=lambda i: (-scores[i], table.ids[i]))
    treatment = [table.ids[i] for i in ranked[:treatment_size]]

    def tally(ids: list[str]) -> tuple[int, int]:
        conv = renew = 0
        for sid in ids:
            if sid not in outcomes:
                raise ValueError(f"no outcome recorded for {sid!r}")
            o = outcomes[sid]
            if o.get("converted"):
                conv += 1
                if o.get("renewed"):
                    renew += 1
        return conv, renew

    t_conv, t_renew = tally(treatment)
    c_conv, c_renew = tally(control)
    z, p = two_proportion_z(t_conv, len(treatment), c_conv, len(control))
    return CampaignOutcome(
        treatment_ids=treatment,
        control_ids=control,
        treatment_conversions=t_conv,
        control_conversions=c_conv,
        treatment_renewals=t_renew,
        control_renewals=c_renew,
        z=z,
        p_value=p,
    )


def write_campaign_csv(outcome: CampaignOutcome, path: str, header_comment: str | None = None) -> None:
    rows = [
        ["size", len(outcome.treatment_ids), len(outcome.control_ids)],
        ["conversions", outcome.treatment_conversions, outcome.control_conversions],
        ["conversion_rate", outcome.treatment_rate, outcome.control_rate],
        ["renewals", outcome.treatment_renewals, outcome.control_renewals],
        ["renewal_rate", outcome.treatment_renewal_rate, outcome.control_renewal_rate],
        ["z", outcome.z, None],
        ["p_value", outcome.p_value, None],
    ]
    write_csv(path, ["metric", "treatment", "control"], rows, header_comment)
