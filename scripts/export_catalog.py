#!/usr/bin/env python3
"""Export every catalog entry as a JSON file ready for the CLI.

Usage: python scripts/export_catalog.py [output_dir]   (default: ./fixtures)
"""

import sys
from pathlib import Path

from hvlab.catalog import entries
from hvlab.formats import SERIALIZERS, dump_json
from hvlab.scalar import format_scalar


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("fixtures")
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = {"behavior": "box", "model": "model", "expression": "expr"}
    for entry in entries().values():
        if entry.kind == "scalar":
            path = out_dir / f"{entry.key}.txt"
            path.write_text(format_scalar(entry.value) + "\n")
        else:
            path = out_dir / f"{entry.key}.{suffix[entry.kind]}.json"
            path.write_text(dump_json(SERIALIZERS[entry.kind](entry.value)))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
