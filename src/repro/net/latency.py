"""Network latency requirements.

Latency requirements per game genre (Claypool & Claypool, cited as [35] in the
paper): first-person games tolerate about 100 ms, third-person about 500 ms
and omnipresent-view games about 1000 ms.  MVEs are first-person, which is why
the paper treats 100 ms as the relevant bound in Figure 3.
"""

from __future__ import annotations

#: approximate maximum acceptable network latency per game genre (ms)
GENRE_LATENCY_THRESHOLDS_MS = {
    "fps": 100.0,
    "rpg": 500.0,
    "rts": 1000.0,
}
