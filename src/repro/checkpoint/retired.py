"""The one table of retired snapshot state, which old snapshots still hold.

``load_checkpoint`` unpickles through it and ``config_hash`` skips its
fields: to retire a config field, class or attribute, add one line here.
It imports nothing from ``repro``, so ``repro.obs.profiling`` can read it.
"""

#: Hashed by ``config_hash``: bump it whenever a config default changes meaning.
CONFIG_SCHEMA = 1

#: The config class, by its global.
CONFIG = ("repro.sim.config", "SimulationConfig")

#: Retired config fields: name -> (the values with which a snapshot still resumes,
#: None for any; why no other value can).  Undeclared ones are dropped on load.
FIELDS = {
    "exact_batched": (None, ""),  # declared while the benchmark passes it
    "compact_trace": (None, ""),
    "incremental_degradation": (
        (True,),
        "batch degradation refresh; its batteries have no streaming accumulator to resume",
    ),
    "adr_enabled": ((False,), "ADR is gone; the resumed run would fix every SF and TX power"),
    "duty_cycle": ((1.0,), "the duty-cycle limiter is gone; the resumed run would ignore it"),
}

#: Retired attributes: holder class, by its global -> names dropped on load.
ATTRIBUTES = {
    ("repro.sim.mesoscopic", "MesoNode"): ("rng",),
    ("repro.energy.harvester", "Harvester"): ("_rng_scratch",),
    ("repro.battery.battery", "Battery"): ("incremental",),
    ("repro.sim.engine", "Simulator"): ("adr", "duty_cycle"),
}

#: Retired classes, which unpickle as ``types.SimpleNamespace``: old global
#: -> (holder class, by its global; its list attribute; conversion of each).
CLASSES = {
    # The heap entry ordered like its tuple, so the heap stays a heap.
    ("repro.sim.events", "_ScheduledEvent"): (
        ("repro.sim.events", "EventQueue"),
        "_heap",
        lambda e: (e.time_s, e.priority, e.sequence, e.kind, e.args),
    ),
}
