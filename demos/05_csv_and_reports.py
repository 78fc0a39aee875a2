"""CSV ingestion and report serialization, end to end.

The same pipeline backs the `latreg` command line: read named columns,
build one lattice over their directions (an interaction such as
pressure*wind is a direction too, never a stored column), fit the
rotations, and serialize a report whose JSON numbers round-trip
bit-exactly.
"""

import io
import json

from latreg import (Direction, UNITY, build_lattice, fit_all_rotations,
                    measure_catalog, parse_model, read_csv, solve,
                    write_report)

CSV = """\
pressure,wind
1.0,2.0
2.0,3.0
3.0,5.0
4.0,6.5
"""

# Columns come in by header name only.
data = read_csv(io.StringIO(CSV), ["pressure", "wind"])
print("ingested:", data)

# The product pressure*wind is a direction: the lattice evaluates it
# row by row in its one data pass, next to the plain columns.
pressure, wind = Direction("pressure"), Direction("wind")
lat = build_lattice(data, [UNITY, pressure, wind, pressure * wind])
print("lattice:", lat)
print("V(1, pressure*wind) =", lat.vertex(UNITY, pressure * wind))

# A model expression names the same direction as a product term.
interaction = solve(lat, parse_model("wind = 1 + pressure + pressure*wind"))
print("interaction model:", interaction.spec.label, interaction.coefficients)

rotations = fit_all_rotations(lat, [UNITY, pressure, wind])
measures = measure_catalog(lat, ["pressure", "wind"])

print("\ntext report:\n")
print(write_report(rotations, measures, format="text").decode("utf-8"))

blob = write_report(rotations, measures, format="json")
payload = json.loads(blob)
print("json rotations:", [r["response"] for r in payload["rotations"]])

# Shortest round-trip decimals mean parsing the report loses nothing.
reparsed = json.loads(json.dumps(payload))
assert reparsed == payload
for entry, rotation in zip(payload["rotations"], rotations):
    assert tuple(entry["coefficients"]) == rotation.fit.coefficients
print("round-trip bit-exact: ok")

# The command line exposes the same reports:
#   latreg rotate --input data.csv --columns pressure,wind --format json
#   latreg fit --input data.csv --model "1 = pressure + wind"
#   latreg fit --input data.csv --model "wind = 1 + pressure + pressure*wind"
#   latreg measures --input data.csv --columns pressure,wind
