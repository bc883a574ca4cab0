"""Cost modelling: price list, bills of materials, and the Table 8 configurator."""

from repro import _lazy_exports

__all__ = [
    "BillOfMaterials",
    "BOMError",
    "DEFAULT_PRICES",
    "PAPER_LATENCY_REDUCTIONS",
    "PriceList",
    "ScenarioRow",
    "format_table8",
    "quartz_core_bom",
    "quartz_edge_and_core_bom",
    "quartz_edge_bom",
    "quartz_ring_bom",
    "table8",
    "three_tier_tree_bom",
    "two_tier_tree_bom",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "BillOfMaterials": "repro.cost.bom",
    "BOMError": "repro.cost.bom",
    "quartz_core_bom": "repro.cost.bom",
    "quartz_edge_and_core_bom": "repro.cost.bom",
    "quartz_edge_bom": "repro.cost.bom",
    "quartz_ring_bom": "repro.cost.bom",
    "three_tier_tree_bom": "repro.cost.bom",
    "two_tier_tree_bom": "repro.cost.bom",
    "PAPER_LATENCY_REDUCTIONS": "repro.cost.configurator",
    "ScenarioRow": "repro.cost.configurator",
    "format_table8": "repro.cost.configurator",
    "table8": "repro.cost.configurator",
    "DEFAULT_PRICES": "repro.cost.pricelist",
    "PriceList": "repro.cost.pricelist",
})
