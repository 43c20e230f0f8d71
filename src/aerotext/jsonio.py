"""The one JSON writer: canonical (sorted keys, no spaces) and strict.

Every JSON artifact and stdout line goes through `dumps`: report.json,
manifest.json, stats.json, the checkpoint metadata and the `train` and
`predict` result lines. A NaN or infinity has no JSON spelling, so it is
refused with NonfiniteValue instead of being written as a bare `NaN`
token that strict parsers reject.
"""

from __future__ import annotations

import json

from .errors import NonfiniteValue


def dumps(obj) -> str:
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise NonfiniteValue(f"refusing to write a non-finite value as JSON ({exc})") from None
