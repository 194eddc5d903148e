"""Golden digests: every CLI artifact, stdout stream and exit status is pinned.

Each case runs ``hydrobohm.cli.main`` in a fresh working directory with a
relative ``--out`` path, then compares SHA-256 digests of the written file
and of stdout against the table below.  The digests were recorded once and
are never regenerated by the suite: a refactor of the output path must keep
every byte.  On a mismatch the failure message names the argv and the
digest actually produced.
"""

import hashlib

import pytest

from hydrobohm.cli import OUT_DIR_ENV, main

pytestmark = pytest.mark.pins

# (argv, exit status, digest of the --out file or None, digest of stdout)
GOLDEN = [
    ("levels --n-max 10 --out out.csv", 0,
     "0cdffb62fb5cce54dc80d9562052c6168ea25c643b45c412c6b93070a9140209",
     "04913500aeb0ea941f8563bfb4fd95bdea2b33cb42330db43adada1b99c1c7dc"),
    ("levels --n-max 10 --format json --out out.json", 0,
     "6848f837ef59146211a0aa1639ef3311ed49dcf162752690ef8045b3b919c9cc",
     "04913500aeb0ea941f8563bfb4fd95bdea2b33cb42330db43adada1b99c1c7dc"),
    ("flatness --n-max 3 --out out.csv", 0,
     "8612556f15cbb745c5c290f2e6bea2ecab94be640e0d84e90a0bc2c46e4f766b",
     "a96bce4d874141f2623341d95a7402e81abf29a95ec793bc1892f9ebf23befa4"),
    ("flatness --n-max 3 --format json --out out.json", 0,
     "a73cd8d049eb577053279a4c34df162ff3cb66a2f667afbcbb0ab61031a48a24",
     "a96bce4d874141f2623341d95a7402e81abf29a95ec793bc1892f9ebf23befa4"),
    ("flatness --n-max 3 --circular", 0,
     None,
     "9caf5213eb63f911a7de1e7848851c6ea794067142d0d87a89822be58570bf29"),
    ("flatness --n-max 1 --method fd --tol 1e-12", 1,
     None,
     "a5a168f8860dfb4bbbef1293205ddbbaa31db19e96faed1055ea38ca8ce4b69c"),
    ("bohr-radii --n-max 10 --out out.csv", 0,
     "f3ef353e7e23a1ee62b863903b6ed1b410e74b110c2aaee188d9cba7d875bff2",
     "eb63e5a66c5a7406bcb410790dc9e039b6cf7f4eec05af6c0136da4993e14304"),
    ("bohr-radii --n-max 10 --format json --out out.json", 0,
     "f98bd37363460c1c6d5e7c46a8e37227a284a9be538befddf232c178a83b21d5",
     "eb63e5a66c5a7406bcb410790dc9e039b6cf7f4eec05af6c0136da4993e14304"),
    ("airy --times 0,0.3 --out out.csv", 0,
     "bf3d2969d3afc3261143223da2892c06d6f13fe52a6f49cb4675998b428c5be3",
     "3c45a24b5da87cd145313ba63565f1a429d805ace166026e765a9d4faeb49b0b"),
    ("airy --times 0,0.3 --format json --out out.json", 0,
     "365fb346ac1054af3713125c8cada323890f88e2dfc5e24f09b3e63512120634",
     "3c45a24b5da87cd145313ba63565f1a429d805ace166026e765a9d4faeb49b0b"),
    ("profile --state 3,1,1 --quantity P --format csv --out out.csv", 0,
     "9b959c237fb8cfdea5037304f3666646d3a333a230c3febf1a73e04b52e5834b",
     "7bf52be270ebc1463a84164ccaeb3ec3d4747df6b80598ec05b3c2a4718cd95b"),
    ("profile --state 3,1,1 --quantity P --format json --out out.json", 0,
     "fd9b5f21668a440f8faa4e7cb127c6eb1fcb2a3b295a4662ff6aac7aa0646145",
     "1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e"),
    ("profile --state 3,1,1 --quantity P --format svg --out out.svg", 0,
     "9ed416e960f73f8501fdb038ee46231bbae53cb203c38c622bf664e640c9a7ca",
     "9a00460baa4d47390b2e10a23c5f61a4060043209aac04ec7f9501f5a607079d"),
    ("profile --state 3,1,1 --quantity V --format csv --out out.csv", 0,
     "8c1e54fcdfc102803a1e84299f6a7978a34699ad124d2340a5878996ad599790",
     "7bf52be270ebc1463a84164ccaeb3ec3d4747df6b80598ec05b3c2a4718cd95b"),
    ("profile --state 3,1,1 --quantity V --format json --out out.json", 0,
     "7b79fc5f1f2b71d51e66c221ddd5548c755301a6c060d2b64333dd3d59818f61",
     "1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e"),
    ("profile --state 3,1,1 --quantity V --format svg --out out.svg", 0,
     "add3e3bdae224e26c814f8993d1ef82fc95e17038b6633b30e59a3ae80591019",
     "9a00460baa4d47390b2e10a23c5f61a4060043209aac04ec7f9501f5a607079d"),
    ("profile --state 3,1,1 --quantity V_bohm --format csv --out out.csv", 0,
     "27aa2930dfcadc57b84668eec19a3428f23003d9bf1319629ae5326a156c0073",
     "7bf52be270ebc1463a84164ccaeb3ec3d4747df6b80598ec05b3c2a4718cd95b"),
    ("profile --state 3,1,1 --quantity V_bohm --format json --out out.json", 0,
     "dab08e0f0a8f1c1faedd2a269ca8a6fedf934fc9fd2f6529760e2be133f17090",
     "1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e"),
    ("profile --state 3,1,1 --quantity V_bohm --format svg --out out.svg", 0,
     "12bd3939cb67455ece04ba4e3781912946da7fe855c28bc9fed660e8f72238f6",
     "9a00460baa4d47390b2e10a23c5f61a4060043209aac04ec7f9501f5a607079d"),
    ("profile --state 3,1,1 --quantity V_q --format csv --out out.csv", 0,
     "c245912df49a83bf7dd6711f21fcdf2b20a2ab570edfaaf8f157be74e3a05bd3",
     "7bf52be270ebc1463a84164ccaeb3ec3d4747df6b80598ec05b3c2a4718cd95b"),
    ("profile --state 3,1,1 --quantity V_q --format json --out out.json", 0,
     "d76d3b6f640ac9a07f3733fb1861bf9834536a7fbc845a68a524677cd9561d2d",
     "1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e"),
    ("profile --state 3,1,1 --quantity V_q --format svg --out out.svg", 0,
     "ae7542a4c7e4636c54e8109f41e7660db8b0aa500d4b057b781a8a2fd42b5e05",
     "9a00460baa4d47390b2e10a23c5f61a4060043209aac04ec7f9501f5a607079d"),
    ("profile --state 3,1,1 --quantity j --format csv --out out.csv", 0,
     "fdd773f992af781d86b2c132ecd3726091a724c8855432fa84534bd682bc7495",
     "7bf52be270ebc1463a84164ccaeb3ec3d4747df6b80598ec05b3c2a4718cd95b"),
    ("profile --state 3,1,1 --quantity j --format json --out out.json", 0,
     "2c10876c121d37167f5cb0ea96eb153d78961be5eb53022f708b6caf90e6fce7",
     "1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e"),
    ("profile --state 3,1,1 --quantity j --format svg --out out.svg", 0,
     "267f9cdd2e3a47bfc78223c689a41cbd763d28e3899cedfa456e6c8015da27eb",
     "9a00460baa4d47390b2e10a23c5f61a4060043209aac04ec7f9501f5a607079d"),
    ("profile --state 3,1,1 --quantity residual --format csv --out out.csv", 0,
     "e44796bd63db32d57a9ba5cd29a25d1ce80eb1f1ed1b4775d6f6a3c414aaef7e",
     "7bf52be270ebc1463a84164ccaeb3ec3d4747df6b80598ec05b3c2a4718cd95b"),
    ("profile --state 3,1,1 --quantity residual --format json --out out.json", 0,
     "59fa48c3259c6647f67c7c63ff2b3ccd870ff8fbb7cc3917adda63646aac317f",
     "1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e"),
    ("profile --state 3,1,1 --quantity residual --format svg --out out.svg", 0,
     "716a9cc6dbb82a8e629b4005e768968862e31c67d264fdcb809d78b00c26a467",
     "9a00460baa4d47390b2e10a23c5f61a4060043209aac04ec7f9501f5a607079d"),
    ("profile --state airy --time 0.5 --quantity P --format csv --out out.csv", 0,
     "c781d113b65c86282f7812200188a11664687478138864f3e0e565af5d9a41c0",
     "7bf52be270ebc1463a84164ccaeb3ec3d4747df6b80598ec05b3c2a4718cd95b"),
    ("profile --state airy --time 0.5 --quantity P --format json --out out.json", 0,
     "b75f0c5ff26cac30ceb2fa7633194fffb9346de92fb021d738b3b06ffcbd78ec",
     "1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e"),
    ("profile --state airy --time 0.5 --quantity P --format svg --out out.svg", 0,
     "45c8effbe2eeb5082675b719a75ad289dc3d2a852c2cd54c8cdc6334a86fcec5",
     "9a00460baa4d47390b2e10a23c5f61a4060043209aac04ec7f9501f5a607079d"),
    ("profile --state airy --time 0.5 --quantity V --format csv --out out.csv", 0,
     "3f3769235335caa89838870b33918e8018ae7974397193d8e377ba4a30cce5c9",
     "7bf52be270ebc1463a84164ccaeb3ec3d4747df6b80598ec05b3c2a4718cd95b"),
    ("profile --state airy --time 0.5 --quantity V --format json --out out.json", 0,
     "7ad6c8c354b1df4d77fe59d9fe3c3d81b30469d8100f0212f7d6304515124bff",
     "1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e"),
    ("profile --state airy --time 0.5 --quantity V --format svg --out out.svg", 0,
     "9f8457204a3c001eae3580a7b8e1ebeed5feb38af179733009d8e278cbaaaaac",
     "9a00460baa4d47390b2e10a23c5f61a4060043209aac04ec7f9501f5a607079d"),
    ("profile --state airy --time 0.5 --quantity V_bohm --format csv --out out.csv", 0,
     "fb5acd5f0bf92505736f8f8114cc4f08c4cf5abd3a9c0dbf3c7b3778b0269301",
     "7bf52be270ebc1463a84164ccaeb3ec3d4747df6b80598ec05b3c2a4718cd95b"),
    ("profile --state airy --time 0.5 --quantity V_bohm --format json --out out.json", 0,
     "3bbc434ec999356ba44466485f6692113953a092dac7fb75c707528f08ec3e28",
     "1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e"),
    ("profile --state airy --time 0.5 --quantity V_bohm --format svg --out out.svg", 0,
     "8e5f6059eb7097d63364481ed58c422a7010640d5ae349a68db0a1a959ea53c1",
     "9a00460baa4d47390b2e10a23c5f61a4060043209aac04ec7f9501f5a607079d"),
    ("profile --state airy --time 0.5 --quantity V_q --format csv --out out.csv", 0,
     "fb5acd5f0bf92505736f8f8114cc4f08c4cf5abd3a9c0dbf3c7b3778b0269301",
     "7bf52be270ebc1463a84164ccaeb3ec3d4747df6b80598ec05b3c2a4718cd95b"),
    ("profile --state airy --time 0.5 --quantity V_q --format json --out out.json", 0,
     "db3e2a842d63fe8d2385ed9f937b5e3c6e88567c8394e49dfe5d6432afae18a0",
     "1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e"),
    ("profile --state airy --time 0.5 --quantity V_q --format svg --out out.svg", 0,
     "039aced482eb953399f5c381eaca6d777bd5f81d587ea6b0ef90b46af10428f1",
     "9a00460baa4d47390b2e10a23c5f61a4060043209aac04ec7f9501f5a607079d"),
    ("profile --state airy --time 0.5 --quantity j --format csv --out out.csv", 0,
     "f5137135475a04a297f1e474ae164e1059b5860d24257805efc3535d11b000c6",
     "7bf52be270ebc1463a84164ccaeb3ec3d4747df6b80598ec05b3c2a4718cd95b"),
    ("profile --state airy --time 0.5 --quantity j --format json --out out.json", 0,
     "2ddea91b61a77628c80efccb60f0a13807dbd691046d18f7193baf39e632b415",
     "1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e"),
    ("profile --state airy --time 0.5 --quantity j --format svg --out out.svg", 0,
     "2c8ce491e2f277c9def4c021f67f62d8d26b852603e56fcad85f1606173c534c",
     "9a00460baa4d47390b2e10a23c5f61a4060043209aac04ec7f9501f5a607079d"),
    ("profile --state airy --time 0.5 --quantity residual --format csv --out out.csv", 0,
     "90ccb8f4d10fe6ec6184c79fe4f1675d7debcee03b0580151e34ffbf06acd694",
     "7bf52be270ebc1463a84164ccaeb3ec3d4747df6b80598ec05b3c2a4718cd95b"),
    ("profile --state airy --time 0.5 --quantity residual --format json --out out.json", 0,
     "7f4a248817d937825f2955ce6dc3ede32fbcf7dd1e4d6b9d969887485f72ccf1",
     "1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e"),
    ("profile --state airy --time 0.5 --quantity residual --format svg --out out.svg", 0,
     "cb946bc4a380a6af8859204b8e2d1a35ecfd99dc2c76a881cdb900ebc51d88cc",
     "9a00460baa4d47390b2e10a23c5f61a4060043209aac04ec7f9501f5a607079d"),
    # Masked runs: 207 of 4,000 V_q samples of (4, 2, -1) are masked in a
    # trailing run; 2,748 of 8,000 packet residual samples are masked, which
    # splits the SVG curve into 13 polylines.
    ("profile --state 4,2,-1 --quantity V_q --format csv --out out.csv", 0,
     "d83d3cf8a04fdc733f56a7c4cc49194e049c27b96600b5257ce35748bd54c07f",
     "7bf52be270ebc1463a84164ccaeb3ec3d4747df6b80598ec05b3c2a4718cd95b"),
    ("profile --state 4,2,-1 --quantity V_q --format json --out out.json", 0,
     "5a0cba291dcac9e815664c3fa2364dce9b56f2eb00c01e25878177d2a6f6dc38",
     "1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e"),
    ("profile --state 4,2,-1 --quantity V_q --format svg --out out.svg", 0,
     "1da15aeb952b4c06ef1a64bc7a0a0e51f913ec315dbdee3a3941fd11dfec32a3",
     "9a00460baa4d47390b2e10a23c5f61a4060043209aac04ec7f9501f5a607079d"),
    ("profile --state airy --time 0 --quantity residual --format json --out out.json", 0,
     "72c1fbd2fe488af1d28721c828890113082e5b32a4c06df8a156ed4ac35b4657",
     "1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e"),
    ("profile --state airy --time 0 --quantity residual --format svg --out out.svg", 0,
     "68a21c68b37814732eecd0505694614f9bc8c5a8669d4d8619501231d3c10a42",
     "9a00460baa4d47390b2e10a23c5f61a4060043209aac04ec7f9501f5a607079d"),
    ("profile --state 1,1,0 --out out.csv", 2,
     None,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _out_name(argv: list[str]) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


@pytest.mark.parametrize("argv, status, file_digest, stdout_digest", GOLDEN, ids=[case[0] for case in GOLDEN])
def test_golden(argv, status, file_digest, stdout_digest, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    args = argv.split()
    got_status = main(args)
    got_stdout = _digest(capsys.readouterr().out.encode("utf-8"))
    out_name = _out_name(args)
    got_file = None
    if out_name is not None and (tmp_path / out_name).exists():
        got_file = _digest((tmp_path / out_name).read_bytes())
    assert got_status == status, f"argv {argv!r}: exit status {got_status}, expected {status}"
    assert got_file == file_digest, f"argv {argv!r}: file digest {got_file}"
    assert got_stdout == stdout_digest, f"argv {argv!r}: stdout digest {got_stdout}"
