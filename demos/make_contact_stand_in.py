"""Regenerate the bundled synthetic contact networks.

The package ships two edge lists mimicking one school day of face-to-face
contacts among 236 people (10 classes of 23 students plus 6 staff): a
"morning" network dominated by within-class contact and a sparser "midday"
network with more cross-class mixing.  Rows are "i,j,count"; the loader keeps
an edge when the aggregate count reaches 3, so some rows fall below the
threshold on purpose.

The real recordings these stand in for are the SocioPatterns primary-school
RFID data (http://www.sociopatterns.org).  The loader reads only rows of 2 or
3 comma-separated integers ("i,j" or "i,j,count"), so recordings in another
layout must first be aggregated to "i,j,count" rows.  Run this script from the
repository root to refresh the CSVs:

    python demos/make_contact_stand_in.py
"""

from pathlib import Path

import numpy as np

N_CLASSES = 10
CLASS_SIZE = 23
N_STAFF = 6
N = N_CLASSES * CLASS_SIZE + N_STAFF

OUT_DIR = Path(__file__).resolve().parents[1] / "src" / "netate" / "data"


def class_of(i: int) -> int:
    return i // CLASS_SIZE if i < N_CLASSES * CLASS_SIZE else -1  # -1 = staff


def sample_period(rng, within_p, cross_p, staff_p, within_mean, cross_mean):
    rows = []
    degree_at_3 = np.zeros(N, dtype=int)
    for i in range(N):
        for j in range(i + 1, N):
            ci, cj = class_of(i), class_of(j)
            if ci == -1 or cj == -1:
                p = staff_p
                mean = cross_mean
            elif ci == cj:
                p = within_p
                mean = within_mean
            else:
                p = cross_p
                mean = cross_mean
            if rng.random() < p:
                count = 1 + rng.poisson(mean)
                rows.append((i, j, count))
                if count >= 3:
                    degree_at_3[i] += 1
                    degree_at_3[j] += 1
    # everyone should survive the count>=3 threshold: wire up stragglers
    for i in np.flatnonzero(degree_at_3 == 0):
        j = (i + 1) % N if class_of((i + 1) % N) == class_of(i) else (i - 1) % N
        rows.append((int(i), int(j), 3))
        degree_at_3[i] += 1
        degree_at_3[j] += 1
    return rows


def write(rows, path: Path) -> None:
    with open(path, "w") as fh:
        for i, j, c in rows:
            fh.write(f"{i},{j},{c}\n")
    print(f"{path}: {len(rows)} rows")


def main() -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(951413)
    morning = sample_period(
        rng, within_p=0.55, cross_p=0.004, staff_p=0.05, within_mean=5.0, cross_mean=2.0
    )
    midday = sample_period(
        rng, within_p=0.18, cross_p=0.020, staff_p=0.04, within_mean=4.0, cross_mean=2.5
    )
    write(morning, OUT_DIR / "synthetic_contacts_morning.csv")
    write(midday, OUT_DIR / "synthetic_contacts_midday.csv")


if __name__ == "__main__":
    main()
