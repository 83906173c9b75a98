"""Monte-Carlo NMSE benchmarking of estimation schemes.

A sweep walks SNR points and trials, draws one clustered channel and one
per-port noise vector per trial, measures them at every pilot budget P
with every configured scheme, and records the normalized squared error.
Fairness and reproducibility rest on three rules:

* every scheme and every pilot budget of a trial sees the same channel
  and the same per-port noise vector, so differences are attributable to
  the scheme and the budget alone;
* all randomness derives from ``base_seed`` through a fixed integer mix,
  so a config reproduces its records (and its CSV) bit for bit;
* covariance training seeds live in a separate stream from evaluation
  seeds, with its own purpose tag.
"""

from __future__ import annotations

import functools
import time
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace
from operator import attrgetter

import numpy as np

from .baselines import (
    build_steering_dictionary,
    estimate_fas_omp,
    estimate_selmmse,
    random_ports,
    selmmse_ports,
)
from .channels import (
    PilotObservation,
    SscModelParams,
    _finite,
    _whole_number,
    build_port_geometry,
    draw_port_noise,
    generate_ssc_channel,
    noise_power_for_snr,
)
from .fileio import _write_new
from .kernels import BESSEL, COVARIANCE, EXPONENTIAL, kernel_bessel, kernel_covariance, kernel_exponential
from .sbar import _design_plans, reconstruct

SBAR = "sbar"
SELMMSE = "selmmse"
FAS_OMP = "fas-omp"

CSV_HEADER = "scheme,kernel_kind,N,M,P,snr_db,trial,seed,nmse,wall_time_stage2_ns"

_MASK64 = (1 << 64) - 1
# disjoint purpose tags for the seed streams
_TAG_CHANNEL = 0x11
_TAG_NOISE = 0x22
_TAG_PORTS = 0x33
_TAG_TRAIN = 0x44


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(*parts):
    """Deterministically fold integers into one 64-bit seed."""
    acc = 0
    for part in parts:
        acc = _splitmix64(acc ^ (int(part) & _MASK64))
    return acc


def _snr_key(snr_db):
    # inf marks the noiseless limit; map it clear of any finite key
    return (1 << 62) if np.isinf(snr_db) else int(round(float(snr_db) * 1e6))


@dataclass(frozen=True)
class SchemeSpec:
    """One estimation scheme entry of a sweep.

    ``method`` picks the estimator; the remaining fields only matter where
    noted.  For sbar, ``kernel`` chooses exponential/bessel/covariance and
    alpha/eta/train_timeslots parameterize it (eta None means
    the sqrt(1/2pi)-wavelengths default).  For fas-omp, max_atoms,
    residual_tol and dict_oversampling shape the pursuit.
    """

    method: str
    kernel: str = ""
    alpha: float = 1.0
    eta: float | None = None
    train_timeslots: int = 100
    max_atoms: int = 9
    residual_tol: float = 1e-3
    dict_oversampling: int = 4

    def __post_init__(self):
        if self.method not in (SBAR, SELMMSE, FAS_OMP):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == SBAR and self.kernel not in (EXPONENTIAL, BESSEL, COVARIANCE):
            raise ValueError(f"sbar needs a kernel kind, got {self.kernel!r}")

    @property
    def kernel_kind(self) -> str:
        return self.kernel if self.method == SBAR else ""


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one sweep; validated on construction.

    The counts and ``base_seed`` go through the whole-number rule and are
    stored as ints, so 16.0 builds the config of 16 and 2.5 or True fails.
    """

    num_ports: int = 256
    antennas_per_slot: int = 4
    pilot_counts: tuple[int, ...] = (2, 4, 6, 8, 10)
    snr_db: tuple[float, ...] = (20.0,)
    trials: int = 500
    carrier_hz: float = 3.5e9
    aperture_wavelengths: float = 10.0
    channel: SscModelParams = field(default_factory=SscModelParams)
    schemes: tuple[SchemeSpec, ...] = (SchemeSpec(SBAR, BESSEL), SchemeSpec(SELMMSE), SchemeSpec(FAS_OMP))
    base_seed: int = 0
    record_timing: bool = True

    def __post_init__(self):
        for name in ("num_ports", "antennas_per_slot", "trials", "base_seed"):
            object.__setattr__(self, name, _whole_number(getattr(self, name), name))
        counts = tuple(_whole_number(p, "pilot_counts") for p in self.pilot_counts)
        object.__setattr__(self, "pilot_counts", counts)
        # noise_power_for_snr's rule: a finite number, or +inf for the noiseless limit
        snrs = tuple(float(s) if s == np.inf else _finite(s, "snr_db") for s in self.snr_db)
        object.__setattr__(self, "snr_db", snrs)
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.pilot_counts:
            raise ValueError("pilot_counts must not be empty")
        if not self.snr_db:
            raise ValueError("snr_db must not be empty")
        if not self.schemes:
            raise ValueError("at least one scheme is required")
        # a repeated point would write every one of its records twice
        if len(set(counts)) != len(counts):
            raise ValueError(f"pilot_counts must not repeat a count, got {counts}")
        if len({_snr_key(s) for s in snrs}) != len(snrs):
            raise ValueError(
                f"snr_db must not repeat a point, got {snrs}; points within 1e-6 dB "
                "share their channel and noise seeds"
            )
        seen = set()
        for scheme in self.schemes:
            identity = (scheme.method, scheme.kernel_kind)
            if identity in seen:
                raise ValueError(
                    f"two schemes share scheme {identity[0]!r} with kernel kind {identity[1]!r}; "
                    "their records could not be told apart"
                )
            seen.add(identity)
        for p in self.pilot_counts:
            if p < 1:
                raise ValueError("pilot counts must be positive")
            if p * self.antennas_per_slot > self.num_ports:
                raise ValueError(
                    f"P={p} slots of M={self.antennas_per_slot} ports exceed N={self.num_ports}"
                )


@dataclass(frozen=True)
class ResultRecord:
    """One (scheme, operating point, trial) outcome."""

    scheme: str
    kernel_kind: str
    num_ports: int
    antennas_per_slot: int
    num_timeslots: int
    snr_db: float
    trial: int
    seed: int
    nmse: float
    wall_time_stage2_ns: int


def channel_seed(base_seed, snr_db, trial):
    """Channel draw for one trial; shared across schemes and pilot budgets.

    Keeping the pilot count out of the stream turns the P sweep into a
    common-random-numbers comparison: every budget estimates the same
    channels under the same noise, so trend differences are systematic
    rather than draw luck.
    """
    return derive_seed(base_seed, _TAG_CHANNEL, _snr_key(snr_db), trial)


def noise_seed(base_seed, snr_db, trial):
    return derive_seed(base_seed, _TAG_NOISE, _snr_key(snr_db), trial)


def ports_seed(base_seed, num_timeslots, snr_db, trial):
    return derive_seed(base_seed, _TAG_PORTS, num_timeslots, _snr_key(snr_db), trial)


def training_seed(base_seed, index):
    return derive_seed(base_seed, _TAG_TRAIN, index)


def _squared_norms(x):
    # einsum reduces the products as it forms them, with no |x|^2 temporary
    return np.einsum("...i,...i->...", x.real, x.real) + np.einsum("...i,...i->...", x.imag, x.imag)


def nmse(truth, estimate):
    """Normalized squared error ||h - hhat||^2 / ||h||^2.

    Takes one channel, shape (N,), and gives a float, or a block of T
    channels, shape (T, N), and gives the T errors row by row.
    """
    h = np.asarray(getattr(truth, "values", truth))
    hhat = np.asarray(getattr(estimate, "values", estimate))
    if h.shape != hhat.shape:
        raise ValueError("truth and estimate must have the same shape")
    if h.ndim not in (1, 2):
        raise ValueError("truth must be one channel or a block of channels")
    denom = _squared_norms(h)
    if not denom.all():
        raise ValueError("truth has zero norm")
    errors = _squared_norms(h - hhat) / denom
    return float(errors) if h.ndim == 1 else errors


def train_covariance_kernel(config, train_timeslots):
    """Average an SSC training ensemble into a covariance kernel.

    Training channels use the dedicated training seed stream derived from
    ``base_seed``, never the evaluation stream.
    """
    t = _whole_number(train_timeslots, "train_timeslots")
    if t < 1:
        raise ValueError("train_timeslots must be at least 1")
    seeds = [training_seed(config.base_seed, i) for i in range(t)]
    geom = build_port_geometry(config.num_ports, config.aperture_wavelengths, config.carrier_hz)
    ensemble = [
        generate_ssc_channel(geom, replace(config.channel, rng_seed=s)) for s in seeds
    ]
    return kernel_covariance(ensemble)


def _scheme_kernel(scheme, config, geom):
    if scheme.kernel == EXPONENTIAL:
        return kernel_exponential(geom, alpha=scheme.alpha, eta=scheme.eta)
    if scheme.kernel == BESSEL:
        return kernel_bessel(geom, alpha=scheme.alpha, eta=scheme.eta)
    return train_covariance_kernel(config, scheme.train_timeslots)


def run_sweep(config, plan_cache=None):
    """Run the configured sweep and return records in canonical order.

    The loop runs over SNR points.  Each point draws the channel and the
    per-port noise vector of every trial once and stacks them into (T, N)
    blocks H and R = H + Z, so a point holds O(T*N) memory.  Every pilot
    budget P and every scheme then measures those noisy channels at its own
    ports and estimates all T trials in one call on the (T, P*M) block:
    sbar and selmmse at their fixed ports, fas-omp at ports drawn per
    trial, one port set per row.  Records come back sorted by (scheme
    position, P, snr, trial).  With ``record_timing`` a record's
    ``wall_time_stage2_ns`` is the block call's time divided by T for every
    scheme.  Plans are kept per (kernel fingerprint, P, M, noise power) in
    ``plan_cache``, a fresh dict unless the caller passes one; a dict
    passed in exposes the designed plans and carries them over to later
    calls.  A miss designs every pilot budget of the config still missing
    for its (kernel fingerprint, M, noise power) in one greedy pass, whose
    plans equal ``design_plan``'s.  Caching cannot change any record: the
    design is deterministic in its inputs.
    """
    geom = build_port_geometry(config.num_ports, config.aperture_wavelengths, config.carrier_hz)
    n, m, trials = config.num_ports, config.antennas_per_slot, config.trials
    kernels = {}
    dictionaries = {}
    for scheme in config.schemes:
        if scheme.method == SBAR and scheme not in kernels:
            kernels[scheme] = _scheme_kernel(scheme, config, geom)
        if scheme.method == FAS_OMP and scheme.dict_oversampling not in dictionaries:
            dictionaries[scheme.dict_oversampling] = build_steering_dictionary(
                geom, scheme.dict_oversampling
            )
    if plan_cache is None:
        plan_cache = {}

    def plan_for(scheme, p, noise_power):
        fingerprint = kernels[scheme].fingerprint
        if (fingerprint, p, m, noise_power) not in plan_cache:
            missing = [q for q in config.pilot_counts if (fingerprint, q, m, noise_power) not in plan_cache]
            for q, plan in zip(missing, _design_plans(kernels[scheme], missing, m, noise_power)):
                plan_cache[fingerprint, q, m, noise_power] = plan
        return plan_cache[fingerprint, p, m, noise_power]

    def timed(estimator, *args, **kwargs):
        tic = time.perf_counter_ns()
        out = estimator(*args, **kwargs)
        return out, time.perf_counter_ns() - tic

    records = []
    for snr in config.snr_db:
        noise_power = noise_power_for_snr(n, snr)
        seeds = [channel_seed(config.base_seed, snr, t) for t in range(trials)]
        truth = np.empty((trials, n), dtype=complex)
        received = np.empty((trials, n), dtype=complex)
        for t, ch_seed in enumerate(seeds):
            truth[t] = generate_ssc_channel(geom, replace(config.channel, rng_seed=ch_seed)).values
            # h + z at every port; each scheme reads the ports it measures
            received[t] = truth[t] + draw_port_noise(n, noise_power, noise_seed(config.base_seed, snr, t))
        for p in config.pilot_counts:
            for scheme in config.schemes:
                if scheme.method == SBAR:
                    plan = plan_for(scheme, p, noise_power)
                    obs = PilotObservation(received[:, plan.order], noise_power, plan.plan_id)
                    result, wall = timed(reconstruct, plan, obs)
                    estimates = result.estimate
                elif scheme.method == SELMMSE:
                    ports = selmmse_ports(n, p * m)
                    result, wall = timed(estimate_selmmse, received[:, ports], ports, n)
                    estimates = result.values
                else:
                    ports = np.array(
                        [random_ports(n, p * m, ports_seed(config.base_seed, p, snr, t)) for t in range(trials)]
                    )
                    result, wall = timed(
                        estimate_fas_omp,
                        np.take_along_axis(received, ports, axis=1),
                        ports,
                        dictionaries[scheme.dict_oversampling],
                        max_atoms=scheme.max_atoms,
                        residual_tol=scheme.residual_tol,
                    )
                    estimates = result.values
                wall = wall // trials if config.record_timing else 0
                records.extend(
                    ResultRecord(
                        scheme=scheme.method,
                        kernel_kind=scheme.kernel_kind,
                        num_ports=n,
                        antennas_per_slot=m,
                        num_timeslots=p,
                        snr_db=float(snr),
                        trial=t,
                        seed=seeds[t],
                        nmse=error,
                        wall_time_stage2_ns=wall,
                    )
                    for t, error in enumerate(nmse(truth, estimates).tolist())
                )
    order = {(s.method, s.kernel_kind): i for i, s in enumerate(config.schemes)}
    records.sort(key=lambda r: (order[r.scheme, r.kernel_kind], r.num_timeslots, r.snr_db, r.trial))
    return records


def _format_value(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parser(hint):
    """The function that coerces one parsed value to the annotation ``hint``.

    Configs and the results CSV both read values this way, so a field's
    type is stated once, on its dataclass.  YAML 1.1 readers treat
    exponents without a sign (``3.5e9``, ``1e-3`` is fine) as strings, so
    configs written the obvious way would otherwise fail with a type error
    far from the offending line.
    """
    args = typing.get_args(hint)
    if type(None) in args:
        parse = _parser(next(a for a in args if a is not type(None)))
        return lambda value: None if value is None else _coerce(parse, value)
    if typing.get_origin(hint) is tuple:
        parse = _parser(args[0])

        def parse_items(value):
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"expected a list, got {value!r}")
            return tuple(_coerce(parse, item) for item in value)

        return parse_items
    if is_dataclass(hint):
        return functools.partial(_build, hint)
    return hint


@functools.cache
def _field_parsers(cls):
    """Field name -> parser for dataclass ``cls``, resolved once per class."""
    hints = typing.get_type_hints(cls)
    return {f.name: _parser(hints[f.name]) for f in fields(cls)}


def _coerce(parse, value):
    """``parse(value)``, refusing null for a str field, true or false for
    any field but a bool one, anything else for a bool field and a number
    that an int field would truncate."""
    if parse is str and value is None:
        raise ValueError("null is not allowed here")
    if isinstance(value, bool) != (parse is bool):
        allowed = "required" if parse is bool else "not allowed"
        raise ValueError(f"true or false is {allowed} here, got {value!r}")
    out = parse(value)
    if isinstance(out, int) and out != value and not isinstance(value, str):
        raise ValueError(f"{value!r} is not an integer")
    return out


def _build(cls, mapping):
    """Construct ``cls`` from a parsed config mapping, coercing every field.

    An unknown key, a value that does not fit its field and null for a
    field that is not optional raise ValueError naming the key.
    """
    if not isinstance(mapping, dict):
        raise ValueError(f"a {cls.__name__} entry must be a mapping, got {mapping!r}")
    parsers = _field_parsers(cls)
    unknown = set(mapping) - set(parsers)
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in mapping.items():
        try:
            kwargs[key] = _coerce(parsers[key], value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{cls.__name__}.{key}: {exc}") from None
    return cls(**kwargs)


def emit_csv(records, path):
    """Write records with the fixed header; floats keep full precision."""
    row = attrgetter(*(f.name for f in fields(ResultRecord)))
    lines = [CSV_HEADER]
    lines.extend(",".join(map(_format_value, row(r))) for r in records)
    _write_new(path, [("\n".join(lines) + "\n").encode("utf-8")])


def read_csv(path):
    """Parse a results CSV back into the exact ResultRecord list."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized results CSV header")
    parsers, rows = _field_parsers(ResultRecord).values(), lines[1:]
    width = len(parsers)
    for row in rows:
        if row.count(",") != width - 1:
            raise ValueError(f"results CSV row {row!r} does not have {width} fields")
    # one flat list of cells, not a list per row, so each field's parser
    # runs over its whole column and the collector has few lists to scan
    cells = ",".join(rows).split(",") if rows else []
    columns = [list(map(parse, cells[i::width])) for i, parse in enumerate(parsers)]
    return [ResultRecord(*values) for values in zip(*columns)]


CONFIG_VERSION = 1


def config_from_dict(doc, seed_override=None):
    """Build an ExperimentConfig from a parsed config document.

    The document must carry ``config_version: 1`` and a ``schemes`` list;
    unknown keys, at the top level and in the ``channel`` and ``schemes``
    entries, are rejected.  Every value is coerced to the type its field
    is annotated with.  ``seed_override`` replaces base_seed when given,
    under the same check (the sweep command requires an explicit seed).
    """
    doc = dict(doc)
    version = doc.pop("config_version", None)
    if version != CONFIG_VERSION:
        raise ValueError(f"config_version must be {CONFIG_VERSION}, got {version!r}")
    if "schemes" not in doc:
        raise ValueError("config needs a schemes list")
    if seed_override is not None:
        doc["base_seed"] = seed_override
    return _build(ExperimentConfig, doc)


def load_config(path, seed_override=None):
    """Parse a YAML experiment config file (see README for the schema)."""
    import yaml  # loaded by the first config read, not with the package

    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a mapping")
    return config_from_dict(doc, seed_override)
