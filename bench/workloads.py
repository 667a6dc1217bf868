"""Workloads of the eigenbond benchmark, built from a seed.

A job is one bond quoted at a list of short rates.  One *pricing* of a job
inverts its quotes to model states (jump models only, through
``invert_short_rate``) and then calls ``price_bond`` once.  Every output is
checked: against the published Swiss-1987 tables where they exist, and
otherwise against the same inputs priced at ``REFERENCE_EPS``.

The library sees only the generated inputs; the seed stays here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import eigenbond
from eigenbond import benchmark as published

VALUE_TOL = 5e-6  # acceptance suite: values against the published tables
ROOT_TOL = 1e-6  # acceptance suite: break-even short rates
GROSS_TOL = 1e-4  # agreement level of the repository's independent oracles
REFERENCE_EPS = 1e-12

# Quotes below r_phi(0) (0.00592 for subcir_jd, 0.00752 for subcir_pj) have
# no state; inverting one must be refused with a typed ValidationError.
REFUSAL_PROBES = (("subcir_jd", 0.004), ("subcir_pj", 0.005))

JUMP_CONFIGS = ("subcir_jd", "subcir_pj", "subvasicek_jd", "subvasicek_pj")


@dataclass
class Job:
    label: str
    model: object
    sub: object
    schedule: object
    quotes: tuple
    eps: float
    published_values: tuple | None = None
    # (call, put) short rate per decision date, ascending date index;
    # NaN marks a date without a break-even point.
    published_rates: list | None = None
    reference: np.ndarray | None = None

    def states(self) -> list:
        if self.sub.is_trivial:
            return list(self.quotes)
        return [eigenbond.invert_short_rate(self.model, self.sub, q) for q in self.quotes]

    def price(self, eps: float | None = None):
        """One pricing: quote inversion (jump models) and one price_bond call."""
        eps = self.eps if eps is None else eps
        return eigenbond.price_bond(self.model, self.sub, self.schedule, self.states(), eps=eps)

    def problems(self, result) -> list:
        """Reasons the result is wrong; empty when it passes its output check."""
        values = np.asarray(result.values, dtype=float)
        found = []
        if not np.all(np.isfinite(values)):
            return [f"{self.label}: non-finite values"]
        if self.published_values is not None:
            diff = float(np.max(np.abs(values - np.asarray(self.published_values))))
            if diff > VALUE_TOL:
                found.append(f"{self.label}: value off the table by {diff:.2e}")
        if self.published_rates is not None:
            found += self._rate_problems(result)
        if self.published_values is None:
            diff = float(np.max(np.abs(values - self.reference)))
            if diff > GROSS_TOL:
                found.append(f"{self.label}: value off the reference by {diff:.2e}")
        return found

    def _rate_problems(self, result) -> list:
        got = result.break_even_short_rates
        if len(got) != len(self.published_rates):
            return [f"{self.label}: {len(got)} decision dates, expected {len(self.published_rates)}"]
        found = []
        for date, (rates, targets) in enumerate(zip(got, self.published_rates)):
            for side, rate, target in zip(("call", "put"), rates, targets):
                if target is None:
                    continue
                if math.isnan(target):
                    ok = rate is None
                else:
                    ok = rate is not None and abs(rate - target) <= ROOT_TOL
                if not ok:
                    found.append(f"{self.label}: {side} break-even {rate} at date {date}, table {target}")
        return found

    def value_err_eps(self, result) -> float:
        """max |value - reference| in units of the job's eps."""
        return float(np.max(np.abs(result.values - self.reference))) / self.eps


@dataclass
class Workload:
    jobs: list
    probes: list  # (label, model, sub, quote)

    def attach_reference(self) -> None:
        for job in self.jobs:
            job.reference = np.asarray(job.price(REFERENCE_EPS).values, dtype=float)

    def run_probes(self) -> list:
        """Outcome per refusal probe: None when refused with a ValidationError."""
        outcomes = []
        for label, model, sub, quote in self.probes:
            try:
                state = eigenbond.invert_short_rate(model, sub, quote)
            except eigenbond.ValidationError:
                outcomes.append(None)
            except Exception as exc:  # the probe classifies whatever escapes
                outcomes.append(f"{label} {quote}: untyped {type(exc).__name__}: {exc}")
            else:
                outcomes.append(f"{label} {quote}: not refused, state {state}")
        return outcomes


def _stratified(rng, lo: float, hi: float, count: int) -> tuple:
    """One uniform draw in each of ``count`` equal slices of [lo, hi]."""
    edges = np.linspace(lo, hi, count + 1)
    return tuple(float(x) for x in rng.uniform(edges[:-1], edges[1:]))


def _config(name: str):
    return published.benchmark_model(name), published.benchmark_subordinator(name)


def _published_values(config: str, include_put: bool) -> tuple:
    table = "callable_putable_values" if include_put else "callable_values"
    column = published.REFERENCE[table][config]
    return tuple(published.ERRATA.get(table, {}).get(config, column))


def _published_rates(config: str, include_put: bool) -> list:
    """(call, put) break-even rates per date, tables and errata merged."""
    if include_put:
        table = "callable_putable_break_even"
        blocks = published.ERRATA.get(table, {}).get(config, published.REFERENCE[table][config])
        rows = list(zip(blocks["call"], blocks["put"]))
    else:
        table = "callable_break_even"
        calls = list(published.REFERENCE[table][config])
        for pos, fixed in published.ERRATA.get(table, {}).get(config, {}).items():
            calls[pos] = fixed
        rows = [(c, None) for c in calls]
    return rows[::-1]  # tables run tau_20 .. tau_11; results run by date index


def _swiss(rng):
    rates = tuple(published.RATES)
    jobs = []
    for config in published.BENCHMARK_CONFIGS:
        model, sub = _config(config)
        for include_put in (False, True):
            schedule = published.swiss1987_schedule(include_put=include_put)
            values = _published_values(config, include_put)
            kind = "call+put" if include_put else "call"
            jobs.append(Job(f"{config} {kind} 1e-7", model, sub, schedule, rates, 1e-7,
                            published_values=values))
            jobs.append(Job(f"{config} {kind} 1e-10", model, sub, schedule, (0.05,), 1e-10,
                            published_values=(values[rates.index(0.05)],),
                            published_rates=_published_rates(config, include_put)))
    return [jobs[i] for i in rng.permutation(len(jobs))], []


def long_callable_schedule():
    """Monthly 30-year callable: 360 coupons, 300 decision dates at par."""
    return eigenbond.BondSchedule(
        coupon=0.05 / 12,
        coupon_times=tuple(i / 12 for i in range(1, 361)),
        protection_index=60,
        notice_delta=1 / 48,
        call_prices=(1.0,) * 300,
    )


def _long_callable(rng):
    schedule = long_callable_schedule()
    jobs = []
    for config in ("cir", "vasicek"):
        model, sub = _config(config)
        jobs.append(Job(f"{config} 30y monthly", model, sub, schedule,
                        _stratified(rng, 0.01, 0.10, 3), 1e-7))
    return jobs, []


def _rate_sweep(rng):
    schedule = published.swiss1987_schedule(include_put=True)
    jobs = []
    for config in JUMP_CONFIGS:
        model, sub = _config(config)
        jobs.append(Job(f"{config} call+put sweep", model, sub, schedule,
                        _stratified(rng, 0.01, 0.12, 40), 1e-8))
    probes = [(config, *_config(config), quote) for config, quote in REFUSAL_PROBES]
    return jobs, probes


_BUILDERS = {"swiss": _swiss, "long_callable": _long_callable, "rate_sweep": _rate_sweep}
WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int) -> Workload:
    """Every model, clock, schedule and quote list of a workload."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return Workload(*_BUILDERS[name](np.random.default_rng(seed)))
