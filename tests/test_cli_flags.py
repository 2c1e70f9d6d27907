"""Every subcommand's parsed defaults, choices and ``--help`` text, pinned.

The shared flag groups of :mod:`repro.cli` (instance, workers, trace,
cover backend/prune) are declared once and receive per-command
defaults; these pins hold each subcommand to the flags it always had.
The help digests are sha256 prefixes of ``format_help()`` at
``COLUMNS=100`` (recorded under Python 3.11; argparse's layout may
differ on other versions).
"""

import argparse
import hashlib

import pytest

from repro.cli import build_parser

FAMILIES = ["euclidean", "general", "planar"]
BACKENDS = ["robust", "compact"]

DEFAULTS = {
    "tree": {"n": 1000, "k": 2, "queries": 5, "seed": 0},
    "navigate": {"family": "euclidean", "n": 200, "k": 2, "eps": 0.45,
                 "ell": 2, "queries": 5, "seed": 0},
    "route": {"family": "euclidean", "n": 200, "k": 2, "eps": 0.45,
              "ell": 2, "queries": 5, "seed": 0},
    "chaos": {"family": "euclidean", "n": 120, "f": 2, "k": 4, "eps": 0.45,
              "seed": 0, "scenario": "random", "sizes": "", "queries": 40,
              "steps": 8, "no_routing": False, "no_checkpoint": False,
              "workers": None, "trace": False,
              "trace_out": "TRACE_chaos.json"},
    "checkpoint": {"family": "euclidean", "n": 120, "k": 3, "f": 1,
                   "eps": 0.45, "ell": 2, "seed": 0, "gamma": 0.0,
                   "what": "cover", "out": None, "packed": False,
                   "backend": "robust", "shifts": 4, "prune": False,
                   "prune_eps": 0.05, "workers": None, "trace": False,
                   "trace_out": "TRACE_checkpoint.json"},
    "audit": {"checkpoint": None, "family": "euclidean", "n": 120,
              "eps": 0.45, "ell": 2, "seed": 0, "recover": False,
              "resave": False, "backend": "robust", "shifts": 4,
              "prune": False, "prune_eps": 0.05, "workers": None,
              "trace": False, "trace_out": "TRACE_audit.json"},
    "serve": {"checkpoint": None, "family": "euclidean", "n": 120, "k": 3,
              "eps": 0.45, "ell": 2, "seed": 0, "host": "127.0.0.1",
              "port": 7421, "max_batch": 32, "max_queue": 256,
              "deadline_ms": 2000.0, "max_retries": 2, "mmap": False,
              "dynamic": False, "journal": "", "no_obs": False,
              "backend": "robust", "shifts": 4, "prune": False,
              "prune_eps": 0.05, "workers": None},
    "netsim": {"scheme": "tree", "family": "euclidean", "n": 1000,
               "messages": 10000, "eps": 0.45, "ell": 2, "f": 2, "kill": 0,
               "kill_scenario": "random", "spacing": 0.01,
               "service_time": 0.0, "queue_cap": None,
               "tie_break": "seeded", "seed": 0, "json": False,
               "verify": False, "metrics_port": None, "linger": 30.0,
               "workers": None},
    "bench": {"n": 0, "nav_n": 0, "serve_n": 0, "no_serving": False,
              "no_dynamic": False, "no_netsim": False, "seed": 1,
              "repeats": 3, "robust_repeats": 1, "quick": False,
              "no_baseline": False, "prune": True, "prune_eps": 0.05,
              "out_dir": ".", "trace": False, "workers": None},
    "trace-report": {"file": None},
    "info": {},
}

CHOICES = {
    "navigate": {"family": FAMILIES},
    "route": {"family": FAMILIES},
    "chaos": {"family": FAMILIES,
              "scenario": ["random", "adversarial", "regional", "crash"]},
    "checkpoint": {"family": FAMILIES,
                   "what": ["cover", "navigator", "ft", "labels"],
                   "backend": BACKENDS},
    "audit": {"family": FAMILIES, "backend": BACKENDS},
    "serve": {"family": FAMILIES, "backend": BACKENDS},
    "netsim": {"scheme": ["tree", "metric", "ft"], "family": FAMILIES,
               "kill_scenario": ["random", "regional"],
               "tie_break": ["fifo", "lifo", "seeded"]},
}

HELP_DIGESTS = {
    "tree": "8f5d2c39b39c3bab",
    "navigate": "ab87c9fbcde11967",
    "route": "a4ac12b524c56630",
    "chaos": "28bd601663bd6663",
    "checkpoint": "815ee65dcd6ff2ac",
    "audit": "0e59142c2329502b",
    "serve": "8b7911b59163c48a",
    "netsim": "2966f9fef3f80204",
    "bench": "58e35584081dba30",
    "trace-report": "66db9aa145f2398b",
    "info": "d7459a271a590624",
}


@pytest.fixture()
def subcommands(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_every_subcommand_is_pinned(subcommands):
    assert list(subcommands) == list(DEFAULTS)


@pytest.mark.parametrize("command", list(DEFAULTS))
def test_parsed_defaults(subcommands, command):
    cmd = subcommands[command]
    got = {a.dest: a.default for a in cmd._actions if a.dest != "help"}
    assert got == DEFAULTS[command]


@pytest.mark.parametrize("command", list(DEFAULTS))
def test_choices(subcommands, command):
    cmd = subcommands[command]
    got = {a.dest: list(a.choices) for a in cmd._actions if a.choices}
    assert got == CHOICES.get(command, {})


@pytest.mark.parametrize("command", list(DEFAULTS))
def test_help_text_unchanged(subcommands, command):
    text = subcommands[command].format_help()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == HELP_DIGESTS[command]
