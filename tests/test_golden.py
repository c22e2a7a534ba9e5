"""Golden outputs: the bytes of fourteen pinned CLI commands, by sha256.

Each command runs in-process and its stdout is hashed; every command but
``verify``, which takes no ``--out``, is run again into an ``--out`` file
and that file is hashed.  A refactor that claims to keep behaviour must
keep every hash; a change that moves one on purpose updates it here and
records the old and new hash in CHANGES.md.  The hashes were taken with
numpy 2.4 and scipy 1.17.
"""

import hashlib

import pytest

from covertpilot import cli

GOLDEN = {
    "sweep":
        "1d072e91978f1e6a9f5696b85bba2b46e94bd03e2eb296856ac8aa737d572689",
    # every sweep outcome (feasible and each failing condition), lambda_t to 1e-6
    "sweep --eps-max 0.3 --eps-steps 23 --lt-min 1e-06 --lt-max 8.0 --lt-steps 41":
        "4287cae4022ed2df59fb4fdd3d98d493fd021c4512ee0e0ed967b0aae39fcadb",
    # lambda_t from 1e-12 to 1e300: exponent notation (e+29x, e-29x), also
    # negative, in four float columns, which fixed notation would not reach
    "sweep --eps-steps 4 --lt-min 1e-12 --lt-max 1e300 --lt-steps 5":
        "86cae023fe9e4e5c8467f39c092d1a47dda705fc87bdb3bf810444f5bc963b62",
    "rate":
        "3356bb868b68e9ce7be007e61769ca4d6afad4ae1295e2d0033f75f163c3fe3f",
    "rate --epsilon 0.0 --lambda-t 0.3":
        "329ad6c9ce7c783eca1397ec9819cd365c606bef13d092b127b511e85b146c9c",
    # a complex gain, whose |h_w|^2 = Re^2 + Im^2 rounds in its last bits
    "rate --h-w 0.3+0.2j":
        "28b2695ae63aa10f9a3785f5951a9777eef7057c7fe95042d57b33c54bb56b07",
    "sweep --h-w 0.3+0.2j --eps-steps 12 --lt-steps 12":
        "7df73da89ebef33a7ed86daa52c031a0d3a4f5de8ae656b22c1c3af1dd31c557",
    "mc --target comm-detection --trials 600 --seed 11":
        "ca78b8b097c67ffa647e51b338d17aa5b300cc584573451b047d0c8d31eb5141",
    "mc --target sqrtlaw --trials 400 --seed 16":
        "248418589048754546cb2e85b674f64f37fb43fab0bd1e70bb1ba47fc52a653c",
    # a larger bracket grid of the radiometer tally, at k = 10^4 - 1 and
    # 10^5 - 1
    "mc --target sqrtlaw --trials 1500 --seed 17":
        "2d8e2098a845248385691a45e732d2acf88a2ed9cde9a6e5685eb9d5a2cf68ea",
    # k = n - 2 = 1, the smallest shape of the grid's Gamma quantiles
    "mc --target comm-detection --block-len 3 --pilot-len 1 --trials 1500 --seed 19":
        "07bb625b26d438f9dee2d738c610e673627ca323b8a1401b64bfe8319a2fa159",
    "mc --target pilot-kl --trials 2000 --seed 8":
        "2abc3ec1d698fa2b0d636aa1c9974d70109eba48bd8012d4e0ac9715e9e9b1d2",
    "mc --target estimator --trials 150 --seed 12":
        "06af6c951ded7e31849cb2b354370f8cff9c65357928d2a4afeb420c0f0ef8d4",
    "verify --suite all":
        "250b413c0e686da3473ecbb47a34353c82e69e474d21a3464f2197c231f0fe29",
}


# from cold Monte Carlo caches, and again with them warm
@pytest.mark.parametrize("command", GOLDEN)
def test_output_bytes_are_pinned(command, capsys, cold_caches):
    for _ in range(2):
        assert cli.main(command.split()) == cli.EXIT_OK
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == GOLDEN[command]


# --out is overwritten in place: over a longer and over a shorter file,
# and again over its own output, it holds exactly the bytes stdout gets
@pytest.mark.parametrize("prefill", [b"\xff" * 2 ** 20, b"abc"],
                         ids=["1MiB", "3B"])
@pytest.mark.parametrize("command",
                         [c for c in GOLDEN if not c.startswith("verify")])
def test_out_file_bytes_are_pinned(command, prefill, tmp_path, capsys):
    assert cli.main(command.split()) == cli.EXIT_OK
    stdout_len = len(capsys.readouterr().out.encode())
    out = tmp_path / "out"
    out.write_bytes(prefill)
    for _ in range(2):
        assert cli.main(command.split() + ["--out", str(out)]) == cli.EXIT_OK
        data = out.read_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN[command]
        assert len(data) == stdout_len
    assert capsys.readouterr().out == ""
