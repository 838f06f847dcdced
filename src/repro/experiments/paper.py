"""The paper's published numbers, quoted for side-by-side comparison.

Only *shapes* are expected to reproduce (who wins, by what rough factor,
which failure class dominates); the absolute values below come from the
paper's DBpedia-scale testbed.
"""

#: Exp 1 — dictionary precision: "P@3 is about 50 % when the path length
#: is 1 ... while increasing of path length the precision goes down".
EXP1_P_AT_3_LENGTH1 = 0.50

#: Table 8 — QALD-3 end-to-end results (processed, right, partial, R, P, F1).
TABLE8 = {
    "Our Method": (76, 32, 11, 0.40, 0.40, 0.40),
    "squall2sparql": (96, 77, 13, 0.85, 0.89, 0.87),
    "CASIA": (52, 29, 8, 0.36, 0.35, 0.36),
    "Scalewelis": (70, 1, 38, 0.33, 0.33, 0.33),
    "RTV": (55, 30, 4, 0.34, 0.32, 0.33),
    "Intui2": (99, 28, 4, 0.32, 0.32, 0.32),
    "SWIP": (21, 14, 2, 0.15, 0.16, 0.16),
    "DEANNA": (27, 21, 0, 0.21, 0.21, 0.21),
}

#: Figure 6 — "the total response time of our method is faster than DEANNA
#: by 2-68 times"; our understanding stays under 100 ms.
FIGURE6_SPEEDUP_RANGE = (2, 68)
FIGURE6_UNDERSTANDING_BOUND_MS = 100

#: Table 9 — heuristic-rule ablation.
TABLE9 = {
    "arguments_correct": {"without_rules": 32, "with_rules": 48},
    "questions_correct": {"without_rules": 21, "with_rules": 32},
}

#: Table 10 — failure analysis (count, ratio).
TABLE10 = {
    "entity_linking": (17, 0.27),
    "relation_extraction": (14, 0.22),
    "aggregation": (22, 0.35),
    "other": (10, 0.16),
}

#: Table 11 — per-question response times range from 250 ms to 2565 ms.
TABLE11_TIME_RANGE_MS = (250, 2565)

#: The 32 QALD-3 question ids the paper answers correctly (Table 11).
TABLE11_QUESTION_IDS = (
    2, 3, 14, 17, 19, 20, 21, 22, 24, 27, 28, 30, 35, 39, 41, 42, 44, 45,
    54, 58, 63, 70, 74, 76, 77, 81, 83, 84, 86, 89, 98, 100,
)
