"""Every census record against its committed hash (see ``census.py``)."""

import census


def test_every_census_record_matches_its_committed_hash():
    committed = census.load()
    got = census.build()
    if {k: committed[k] for k in census.platform_key()} == census.platform_key():
        want = committed["records"]
        differ = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
        assert not differ, f"{len(differ)} census records differ: {differ}"
    else:  # another NumPy or machine rounds differently: the records must still be repeatable
        assert got.keys() == committed["records"].keys()
        again = census.build()
        assert [k for k in got if got[k] != again[k]] == []


def test_diff_names_the_fields_and_csv_rows_that_moved(capsys):
    old = {
        "cli-solve/1/0": 'exit 0\n{\n  "last": [\n    0.5,\n    0.25\n  ],\n  "steps": 1\n}\n'
                         "step,x1,x2\n0,1.0,0.0\n1,0.5,0.25",
        "certify/1/0": '{\n  "verdict": "distal"\n}\nreplay True',
    }
    new = {
        "cli-solve/1/0": 'exit 0\n{\n  "last": [\n    0.5,\n    0.2500000000000001\n  ],\n  "steps": 1\n}\n'
                         "step,x1,x2\n0,1.0,0.0\n1,0.5000000000000002,0.2500000000000001",
        "certify/1/0": '{\n  "verdict": "distal"\n}\nreplay False',
    }
    census.diff(old, new)
    assert capsys.readouterr().out.splitlines() == [
        "2 records, 2 differ",
        "certify/1/0: replay inf",
        "cli-solve/1/0: csv 2.2e-16, last 1.1e-16",
        "field csv: moved by at most 2.2e-16",
        "field last: moved by at most 1.1e-16",
        "field replay: moved by at most inf",
    ]
