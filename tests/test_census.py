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
