#!/usr/bin/env python3
"""Datacenter design study: where should Quartz go in *your* DCN?

Scenario: a provider weighs the cost of introducing Quartz against its
latency benefit at three scales (the paper's Table 8 / Section 4.4
configurator), then drills into the small-DC case: what a 500-server
deployment pays per server, itemized, and how sensitive the verdict is
to DWDM transceiver price (the component the paper expects to keep
falling — Figure 1).

Run:  python examples/design_datacenter.py
"""

import math

from repro.cost import (
    DEFAULT_PRICES,
    PriceList,
    format_table8,
    quartz_ring_bom,
    table8,
    two_tier_tree_bom,
)


def main() -> None:
    # The full Table 8 sweep.
    rows = table8()
    print(format_table8(rows))
    print()
    for row in rows:
        verdict = "worth it" if row.cost_premium < row.latency_reduction else "judgment call"
        print(
            f"{row.datacenter:<8}{row.utilization:<6}"
            f"premium {row.cost_premium * 100:+5.1f}% for "
            f"-{row.latency_reduction * 100:.0f}% latency  → {verdict}"
        )

    # Itemized small-DC comparison.
    servers = 500
    tree = two_tier_tree_bom(servers)
    ring = quartz_ring_bom(math.ceil(servers / 32), servers)
    print(f"\nItemized bill for {servers} servers ($/unit × count):")
    for name, bom in (("two-tier tree", tree), ("Quartz ring", ring)):
        print(f"  {name}: ${bom.total_cost():,.0f} total, "
              f"${bom.cost_per_server(servers):,.0f}/server")
        for item, count in sorted(bom.items.items()):
            unit = getattr(DEFAULT_PRICES, item)
            print(f"    {item:<22}{count:>6} × ${unit:>9,.0f} = ${unit * count:>11,.0f}")

    # Sensitivity: the Quartz premium vs DWDM transceiver price.
    print("\nSensitivity: small-DC Quartz premium vs DWDM transceiver price")
    for price in (50, 150, 350, 700, 1400):
        prices = PriceList(dwdm_transceiver=float(price))
        row = table8(prices=prices)[0]
        print(f"  ${price:>5}/transceiver → premium {row.cost_premium * 100:+6.1f}%")


if __name__ == "__main__":
    main()
