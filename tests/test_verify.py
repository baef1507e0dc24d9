from tribsum import verify


def test_run_all_counts():
    # The per-suite coverage of a fixed battery; any change to what a
    # sweep draws or checks shows up here.
    reports = verify.run_all(max_n=60, random_count=20, seed=1)
    assert [(r.name, r.passed, r.failed) for r in reports] == [
        ("formula-vs-oracle", 12705, 0),
        ("parity-partition", 3535, 0),
        ("specializations", 840, 0),
        ("named-sequence-identities", 4545, 0),
    ]
