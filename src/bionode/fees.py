"""Cost-based transaction fees.

Computation and storage are priced off provider quotes (a local JSON
fixture standing in for an oracle feed; the largest quoted price becomes
the base cost). Perpetual storage is the infinite sum of yearly storage
costs declining at a fixed annual rate d, which collapses to
first_year_cost / d. Fees are charged per validator and always rounded up
to the next smallest native unit so the protocol never undercharges.

All money arithmetic is Decimal; native amounts are integers in smallest
units (10^-6 of a token, matching the six-decimal internal fee unit).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import ROUND_CEILING, Context, Decimal
from importlib import resources


class DeclineOutOfRange(Exception):
    pass


UNITS_PER_TOKEN = 10**6
HOURS_PER_YEAR = 8766  # 365.25 days
DEFAULT_ANNUAL_DECLINE = Decimal("0.3057")


@dataclass(frozen=True)
class PriceQuote:
    compute_cost_per_tx_usd: Decimal
    storage_cost_gb_hour_usd: Decimal
    hmnd_per_usd: Decimal
    timestamp: str

    def __post_init__(self):
        for v in (self.compute_cost_per_tx_usd, self.storage_cost_gb_hour_usd, self.hmnd_per_usd):
            if v <= 0:
                raise ValueError("quote values must be strictly positive")


@dataclass(frozen=True)
class FeeBreakdown:
    computational: int
    storage_perpetual: int
    total: int
    validators: int
    data_size_gb: Decimal


def parse_finite(text, name: str) -> Decimal:
    """Decimal(text), or a ValueError naming name when text is not a finite number."""
    value = Decimal(text, Context(traps=[]))  # malformed text reads as NaN
    if not value.is_finite():
        raise ValueError(f"{name}: {text!r} is not a finite number")
    return value


def load_quote(path: str | None = None) -> PriceQuote:
    """Read a provider quote file; the highest quoted prices win."""
    if path is None:
        text = resources.files("bionode.data").joinpath("price_quote.json").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    doc = json.loads(text)

    def price(entry: dict, key: str) -> Decimal:
        return parse_finite(entry[key], f"{path or 'quote'}: {key}")

    try:
        providers = doc["providers"]
        if not providers:
            raise ValueError("quote file lists no providers")
        return PriceQuote(
            compute_cost_per_tx_usd=max(price(p, "compute_usd") for p in providers),
            storage_cost_gb_hour_usd=max(price(p, "storage_gb_hour_usd") for p in providers),
            hmnd_per_usd=price(doc, "hmnd_per_usd"),
            timestamp=doc.get("timestamp", ""),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed quote: {exc!r}") from exc


def _usd_to_units_ceil(usd: Decimal, hmnd_per_usd: Decimal) -> int:
    units = usd * hmnd_per_usd * UNITS_PER_TOKEN
    return int(units.to_integral_value(rounding=ROUND_CEILING))


def computational_fee(quote: PriceQuote, validators: int) -> int:
    """Per-validator computation cost, ceiled to a unit, times validators."""
    if validators < 1:
        raise ValueError("at least one validator processes a transaction")
    per_validator = _usd_to_units_ceil(quote.compute_cost_per_tx_usd, quote.hmnd_per_usd)
    return max(per_validator, 1) * validators


def perpetual_storage_price(
    quote: PriceQuote,
    data_size_gb: Decimal,
    annual_decline: Decimal = DEFAULT_ANNUAL_DECLINE,
) -> int:
    """Closed form data_size * first_year_cost / d, in native units (ceiled).

    Equals the geometric series sum_i data_size * year_cost * (1-d)^i with
    the yearly step cost declining at rate d.
    """
    d = Decimal(annual_decline)
    if not Decimal(0) < d < Decimal(1):
        raise DeclineOutOfRange(f"annual decline {d} outside (0, 1)")
    data_size_gb = Decimal(data_size_gb)
    if data_size_gb < 0:
        raise ValueError("data size cannot be negative")
    if data_size_gb == 0:
        return 0
    year0_usd = quote.storage_cost_gb_hour_usd * HOURS_PER_YEAR
    perpetual_usd = data_size_gb * year0_usd / d
    return _usd_to_units_ceil(perpetual_usd, quote.hmnd_per_usd)


def quote_transaction(
    quote: PriceQuote,
    tx_size_gb: Decimal,
    validators: int,
    annual_decline: Decimal = DEFAULT_ANNUAL_DECLINE,
) -> FeeBreakdown:
    """Full fee: computation per validator plus perpetual storage per
    storing node."""
    tx_size_gb = Decimal(tx_size_gb)
    computational = computational_fee(quote, validators)
    storage = perpetual_storage_price(quote, tx_size_gb, annual_decline) * validators
    return FeeBreakdown(
        computational=computational,
        storage_perpetual=storage,
        total=computational + storage,
        validators=validators,
        data_size_gb=tx_size_gb,
    )
