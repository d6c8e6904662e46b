"""Golden bytes: stdout, stderr and exit code of every claim report and dims
table at n = 4, 6 and 8 in both geometries and at n = 6 ``--sig 4,2
--kind complex``; of ``dims``, thm4.1 and thm4.2 with ``--kind none`` at
n = 4, 6 and 6 ``--sig 4,2``; of thm1.5, thm4.2, thm4.1, eq4d and lemma4.9
at n = 10 in both geometries; of the orbit edge cases of the parity blocks
(thm4.2, thm4.1 and ``dims`` at odd n without a structure, thm1.5, thm4.2,
thm4.1 and ``dims`` with plane sign types interleaved by ``--sig`` and
``--eps``, and thm4.1 at n = 9 without a structure, at n = 12 ``--sig
6,6`` and with a mixed para layout at n = 10); of sec5, eq4c and ``dims`` at n = 10 in both geometries, and
of sec5 and ``dims`` with mixed sign layouts; of eq4d and lemma4.9 at
n = 12 in both geometries and with three mixed sign layouts at n = 8; of
three markdown reports, eq4d's with its note line, lemma4.9's and
thm1.5's at n = 4 with its witness line; of a set of
``eval`` commands
(Nijenhuis breakdowns, their usage errors, and one sigma, psi and invariant
evaluation each); and of a sweep of all seven claims at n = 4 and 6 in both
geometries, in json and markdown (sec5's skipped cells at n = 4, thm1.5's
expected failure there), pinned by sha256; and one sha256 over a grid of
648 Nijenhuis probes at n = 4.

A refactor that keeps verdicts, dimensions and JSON bytes must keep these
digests.  A change that alters a report on purpose re-records the table
from a checkout of the new code and says why in its change notes.
"""

import contextlib
import hashlib
import io

import pytest

from curvlab import cli

CLAIMS = ("thm4.1", "thm4.2", "thm1.5", "sec5", "eq4c", "eq4d", "lemma4.9")

# grouped by model space, so consecutive cases share the memoised catalog
CASES = [
    (f"{cmd} --n {n} --kind {kind}")
    for n in (4, 6)
    for kind in ("complex", "para")
    for cmd in ("dims", *(f"verify {claim}" for claim in CLAIMS))
] + [
    (f"{cmd} --n 8 --kind {kind}")
    for kind in ("complex", "para")
    for cmd in ("dims", *(f"verify {claim}" for claim in CLAIMS))
] + [
    f"{cmd} --n 6 --sig 4,2 --kind complex"
    for cmd in ("dims", *(f"verify {claim}" for claim in CLAIMS))
] + [
    f"{cmd} --n {n} --kind none"
    for n in (4, 6)
    for cmd in ("dims", "verify thm4.1", "verify thm4.2")
] + [
    f"{cmd} --n 6 --sig 4,2 --kind none"
    for cmd in ("dims", "verify thm4.1", "verify thm4.2")
] + [
    f"verify {claim} --n 10 --kind {kind}"
    for kind in ("complex", "para")
    for claim in ("thm1.5", "thm4.2", "thm4.1", "eq4d", "lemma4.9")
] + [
    # orbit edge cases of the parity blocks: odd n and an indefinite
    # signature without a structure, and plane sign types interleaved by
    # --sig and --eps
    "verify thm4.2 --n 5 --kind none",
    "verify thm4.2 --n 7 --kind none --sig 4,3",
    "dims --n 7 --kind none --sig 4,3",
    "verify thm1.5 --n 8 --kind complex --sig 4,4",
    "verify thm1.5 --n 8 --kind complex --eps=+,+,-,-,+,+,-,-",
    "verify thm1.5 --n 8 --kind para --eps=-,+,+,-,+,-,-,+",
    "dims --n 8 --kind para --eps=-,+,+,-,+,-,-,+",
    "verify thm4.2 --n 8 --kind complex --sig 2,6",
    # thm4.1 on the parity blocks, at odd n and with mixed sign layouts
    "verify thm4.1 --n 5 --kind none",
    "verify thm4.1 --n 7 --kind none",
    "verify thm4.1 --n 7 --kind none --sig 4,3",
    "verify thm4.1 --n 8 --kind complex --sig 2,6",
    "verify thm4.1 --n 8 --kind complex --eps=+,+,-,-,+,+,-,-",
    "verify thm4.1 --n 8 --kind para --eps=-,+,+,-,+,-,-,+",
    # thm4.1 decided on axis parity blocks: odd n without a structure, an
    # indefinite complex signature and a mixed para layout (n = 10 in both
    # geometries is pinned above)
    "verify thm4.1 --n 9 --kind none",
    "verify thm4.1 --n 12 --kind complex --sig 6,6",
    "verify thm4.1 --n 10 --kind para --eps=-,+,+,-,+,-,-,+,+,-",
    # sec5, eq4c and the span and conformal entries of dims at n = 10, and
    # with mixed sign layouts
    *(f"{cmd} --n 10 --kind {kind}" for kind in ("complex", "para")
      for cmd in ("verify sec5", "verify eq4c", "dims")),
    "verify sec5 --n 8 --kind complex --sig 2,6",
    "dims --n 8 --kind complex --sig 2,6",
    "verify sec5 --n 8 --kind complex --eps=+,+,-,-,+,+,-,-",
    "verify sec5 --n 8 --kind para --eps=-,+,+,-,+,-,-,+",
    # the opposed module's commutants at n = 12 and with mixed sign layouts
    *(f"verify {claim} --n 12 --kind {kind}" for kind in ("complex", "para")
      for claim in ("eq4d", "lemma4.9")),
    *(f"verify {claim} --n 8 --kind {layout}"
      for layout in ("complex --sig 2,6", "complex --eps=+,+,-,-,+,+,-,-", "para --eps=-,+,+,-,+,-,-,+")
      for claim in ("eq4d", "lemma4.9")),
    "verify eq4d --n 6 --kind para --format md",
    "verify lemma4.9 --n 6 --kind complex --format md",
    "verify thm1.5 --n 4 --kind complex --format md",
    "eval nijenhuis --n 6",
    "eval nijenhuis --n 4",
    "eval nijenhuis --n 6 --kind para",
    "eval nijenhuis --n 6 --kind para --plane 1,4 --xy 1,4 --rotation hyperbolic",
    # the two directions of the indefinite case reach the [Jx, Jy] term and
    # the [x, Jy] term
    "eval nijenhuis --n 6 --sig 4,2 --plane 1,5 --xy 2,5 --rotation hyperbolic --slope=-2/3",
    "eval nijenhuis --n 6 --sig 4,2 --plane 1,5 --xy 1,6 --rotation hyperbolic --slope=-2/3",
    "eval nijenhuis --n 6 --slope 0",
    "eval nijenhuis --n 6 --kind para --format md",
    "eval nijenhuis --n 4 --kind para --plane 1,2",
    "eval nijenhuis --n 6 --rotation hyperbolic",
    "eval nijenhuis --n 6 --kind none",
    "eval sigma --psi omega --idx 1,4,3,1 --n 6",
    "eval psi --psi opposed --idx 5,6,1,4 --n 6",
    "eval invariant --tensor omegaxomega --perm 1,3,2,4 --word 11",
    f"sweep --ns 4,6 --claims {','.join(CLAIMS)}",
    f"sweep --ns 4,6 --claims {','.join(CLAIMS)} --format md",
]


# every ordered twist plane of n = 4, both rotations, and every ordered pair
# of directions in {1, 2, 3}: 648 probes, half of them rejected because the
# rotation does not fit the signature of the plane
NIJENHUIS_GRID = [
    f"eval nijenhuis --n 4 {kind} --plane {i},{j} --rotation {rotation} --slope=-2/3 --xy {x},{y}"
    for kind in ("--kind complex", "--kind complex --sig 2,2", "--kind para")
    for i in range(1, 5)
    for j in range(1, 5)
    if i != j
    for rotation in ("circular", "hyperbolic")
    for x in range(1, 4)
    for y in range(1, 4)
]


def run(command: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(command.split())
    return code, out.getvalue(), err.getvalue()


def run_digest(command: str) -> tuple[int, str]:
    """Exit code and sha256 of stdout, a NUL byte and stderr of one in-process run."""
    code, out, err = run(command)
    return code, hashlib.sha256(out.encode() + b"\0" + err.encode()).hexdigest()


def grid_digest(commands: list[str]) -> str:
    """sha256 over (argv, exit code, stdout, stderr) of each run, in order."""
    h = hashlib.sha256()
    for command in commands:
        h.update(repr((command.split(), *run(command))).encode())
    return h.hexdigest()


GOLDEN = {
    "dims --n 4 --kind complex": (0, "130b5c2407452410027a5a2d6a9ff154d45c25e60a7c7c50e56b7a57c22f41d9"),
    "verify thm4.1 --n 4 --kind complex": (0, "c80b19ea6fd9a9e8a65e7c164046ce99c7f5e5dffd0cfa6aa71e1a212787e208"),
    "verify thm4.2 --n 4 --kind complex": (0, "748d6f50fecbc93bd71f10eadc63442bac874b9f3542f22a298c447c61ad91fa"),
    "verify thm1.5 --n 4 --kind complex": (0, "4d8fd81e0c1629b5ab0221c00950248dc633350d1582bfac436ebf63c2758bf9"),
    "verify sec5 --n 4 --kind complex": (2, "fe53850591ef74cd4378822df3b4ed115bc597d7aa36c8fd1e3b2176fe2b7497"),
    "verify eq4c --n 4 --kind complex": (0, "907f796e820a09a6f9a267376099e29ca701c8c09d663f22620047c65baca52f"),
    "verify eq4d --n 4 --kind complex": (0, "175d05dd245c49aece1e061756e227c8e2189ea0db8788274be0b33b9f1e1083"),
    "verify lemma4.9 --n 4 --kind complex": (0, "24d665076f1155b4b60904cf2b707d1e0c43bab8cee74659304cf0c83dab7209"),
    "dims --n 4 --kind para": (0, "b4783b187306290a2240a6cf195cf7f81ed49cb2266313a3c986b4f6a035aa44"),
    "verify thm4.1 --n 4 --kind para": (0, "e2d35e42a53fdafff80e0731fef117860723df7b7c4c81234fe9f2c5b0545907"),
    "verify thm4.2 --n 4 --kind para": (0, "e3be56cd36dc541b1852f37cb321fc3747eff05bd9f68cb300ae64d18ebdb939"),
    "verify thm1.5 --n 4 --kind para": (0, "c4c95314bdfe5954d9f1714e90153bed15acdf6c23f0ec8a9c010110b17aff93"),
    "verify sec5 --n 4 --kind para": (2, "fe53850591ef74cd4378822df3b4ed115bc597d7aa36c8fd1e3b2176fe2b7497"),
    "verify eq4c --n 4 --kind para": (0, "72ab52217f3b8e827b0c40a38fed85267c789213912e8a2625cd6c6a00a28290"),
    "verify eq4d --n 4 --kind para": (0, "237dc2a4ff1b3b5b7eb474c4cd708da101d8b2e585850cbd698b5f9752b3549a"),
    "verify lemma4.9 --n 4 --kind para": (0, "2910cb4123b7ef7fed8a254c6164f034ca844a146fd2ea91d8b690a98dc96bd1"),
    "dims --n 6 --kind complex": (0, "e393ffd88f43bce1078d0e63a5e6b68e8d97f59065093718177abc8f8073f006"),
    "verify thm4.1 --n 6 --kind complex": (0, "37822841e1812b8e5bceb43c08d83122437041cfce3d4914e9cbddbbaac12d66"),
    "verify thm4.2 --n 6 --kind complex": (0, "4ebcca9d28e20675b292eb2f8e8f799fb5bb51b771c7b8cc01788c9f8283456c"),
    "verify thm1.5 --n 6 --kind complex": (0, "0a4d8c506393b50f86da93bdb999128a3c9efdb16ab33b01b4eb86072e73ccf0"),
    "verify sec5 --n 6 --kind complex": (0, "eee218a67c743f155f95f197448dbb79db9cea589303d48b2a396a693de8aa2d"),
    "verify eq4c --n 6 --kind complex": (0, "31eee7da4a3df1c913fe3cb7320ca184b8ee6983a9c530f01d0a1929ab00e06e"),
    "verify eq4d --n 6 --kind complex": (0, "d8042f8ffc608fa6016fb39defa5ab27ea873d4af0f7191cacfcb36adc7abe10"),
    "verify lemma4.9 --n 6 --kind complex": (0, "2af3240c53897410a6398ec122fd1db81a25e40df319891fbdea8e394d61299f"),
    "dims --n 6 --kind para": (0, "a180fa120b4a3e9161bdc4e1dd5dcbdf201a8c7095c2e607fcc4be38a68a1835"),
    "verify thm4.1 --n 6 --kind para": (0, "0106a848ad4869fd2258a6746c2d84990f5c72ea695015379dca00530f3d7170"),
    "verify thm4.2 --n 6 --kind para": (0, "110a63203067901c0609a4197a78f7876bcdefe521a51d9a1c4d80b5a91a88de"),
    "verify thm1.5 --n 6 --kind para": (0, "6c4a80d9255f74b06024f9f95418c18418b86b69ef9f63b9ce69505a3f5488c8"),
    "verify sec5 --n 6 --kind para": (0, "1c8d675eb7013685a685c2c3f9cd792ca92fb6569afe8dd121bc890b67ed369b"),
    "verify eq4c --n 6 --kind para": (0, "88ff7dcbf7c89132b6aec96e6565c91cb3a034ea5bf9a0c6ed93e58484b4cbcb"),
    "verify eq4d --n 6 --kind para": (0, "a08389c3182137264e7c9747ac9c13f75f881920e00cd64864f22bf9218bfcea"),
    "verify lemma4.9 --n 6 --kind para": (0, "7bac2346e93b80a7b9ec8beda5e01ce143d5ab17eb57b6cfe07d45ebbe6a39f1"),
    "dims --n 8 --kind complex": (0, "757c2d0a13231db781d0ad62755607587cb332bdae74437e355577a3b98a66fc"),
    "verify thm4.1 --n 8 --kind complex": (0, "d345148782f09718e74f602020436e8fa26c2b4d1907e0f75168489dd06d38b2"),
    "verify thm4.2 --n 8 --kind complex": (0, "c8160e3b9653c8322a97a46c42948c05d97762de430d385b89ce94ac14ba4920"),
    "verify thm1.5 --n 8 --kind complex": (0, "dd6d3739dd19c5938239b923e9acdfbebf4b0449f47aa7520d413151d7211b71"),
    "verify sec5 --n 8 --kind complex": (0, "c3c79c047a9344d96ae053034263d4a36802139a8565f876de901e33acbe9dd3"),
    "verify eq4c --n 8 --kind complex": (0, "70a7bc3c3a41f802f6b35ea57616b3bec91573474ddda6e0ffeb313960528bef"),
    "verify eq4d --n 8 --kind complex": (0, "a6d2bf5e979388d40a659c00cde592b22bbca1a5b7a08d15437b80d38fb17cbc"),
    "verify lemma4.9 --n 8 --kind complex": (0, "21446d5bdea0a27120183beb5b216a4c77040d83ea7f3495f4566b54473ebb46"),
    "dims --n 8 --kind para": (0, "2ba8d17ca0e593c6778bb1b065f64f4cbee0733062a91101abb9e4ab1d7ea248"),
    "verify thm4.1 --n 8 --kind para": (0, "ae838f1891bfd58952c91cbe11304db40a77d54fb039dbcc1ee5cf431f99069e"),
    "verify thm4.2 --n 8 --kind para": (0, "81bc8e04dc5cbf82501bbf87b6bda2756eef7107f7b9653a7dcc7a74b948c013"),
    "verify thm1.5 --n 8 --kind para": (0, "98254b829af23be2f4fd0b5461d51d2b8e34908bba9c31815b7decc4d9237b6b"),
    "verify sec5 --n 8 --kind para": (0, "b56932fe89802b5c78b53f62e55b59a1b1576457ffb47796d55c7ef759e1a208"),
    "verify eq4c --n 8 --kind para": (0, "f300be3cf23fb7082a6711d41f8e3b240b46873185a9119389f787f58966c2ba"),
    "verify eq4d --n 8 --kind para": (0, "17fd2d1c84e438610157319aa689ec248dea27b5bef155e24de67dff36f0cf1a"),
    "verify lemma4.9 --n 8 --kind para": (0, "8d20a4b76342a64f901d2e0151bd6bd632ae62a309aeab2dc21eaab6fe7a8059"),
    "dims --n 6 --sig 4,2 --kind complex": (0, "90b9bff3a17670158f9e75a9e725e23e63550a74e2a1e192c827d156d1b86acb"),
    "verify thm4.1 --n 6 --sig 4,2 --kind complex": (0, "0d27cbec372e5aa434dd67a086d7867f589b3dbcacdf0352bf3f8eede0173bfc"),
    "verify thm4.2 --n 6 --sig 4,2 --kind complex": (0, "3a634aa7d15ea29a0fe949b671f78ceb76f431e838f7ca93b616a8824b036a9d"),
    "verify thm1.5 --n 6 --sig 4,2 --kind complex": (0, "da594ba4c789e683dcd78a162708d4cd0efc2110a531e3139480101d6c4284e8"),
    "verify sec5 --n 6 --sig 4,2 --kind complex": (0, "673696a952c883eb4b6e6dca11daa5fc6d415e6bc61267a5212d5b2050c65ed4"),
    "verify eq4c --n 6 --sig 4,2 --kind complex": (0, "7fe528b114dfd7d2ab7da7c14dbe75549e1e8a61f02f93914a069a0387ded82b"),
    "verify eq4d --n 6 --sig 4,2 --kind complex": (0, "ad8c2e622e2d9a7d5806d4950928dd4484eb1e46f731a1a43141f704de129097"),
    "verify lemma4.9 --n 6 --sig 4,2 --kind complex": (0, "8c910b052b6bb74e4dec39e5d28a7be5987ed20fdfb3635497eac5bbe6219d9c"),
    "dims --n 4 --kind none": (0, "d28f5381671010d7ad819fe15553d190437e21e461078448d4358a95b749fda7"),
    "verify thm4.1 --n 4 --kind none": (0, "9f1713f4f5648be70a9a5a325a93529ab020d972c6d70bc733193fa7ab1aa009"),
    "verify thm4.2 --n 4 --kind none": (0, "417c60b1ff9b073d388b97e2f00dd2bffa628b25b8e637d466e1860b4f869f12"),
    "dims --n 6 --kind none": (0, "0d2bb854428abc4fd7dc1cf5c3ea9b54f9a19a1b7c24594f96874d8be63b592f"),
    "verify thm4.1 --n 6 --kind none": (0, "c64868222dc2a1dae95d5708268c3de2a9f43eb2f9c0639773c1b84084e27415"),
    "verify thm4.2 --n 6 --kind none": (0, "3ae1631fec31223d7859f263e4d52d7d3b327d8f315aa77943d448b00c4c0f26"),
    "dims --n 6 --sig 4,2 --kind none": (0, "68e6e24212d2c3f36ccc62848b03921da521f48bf49cdd35b332645ff1e531bf"),
    "verify thm4.1 --n 6 --sig 4,2 --kind none": (0, "a90580ca4beecf3771bbc8e0bfc90cb57bfa61767a1d6d03554e419e33b1bf22"),
    "verify thm4.2 --n 6 --sig 4,2 --kind none": (0, "59cf1e4335baf25dd74996aa59bf28ad68b803d20bc856c056fa8a1cdbc8651b"),
    "verify thm1.5 --n 10 --kind complex": (0, "c7df9861286b4dca595c15712ba1f60e1d3d105b50910a96ea408d40e4ef2fdc"),
    "verify thm4.2 --n 10 --kind complex": (0, "f520b7b808aa32ef605947f5d364650b65611c1441a56ad83a5c9b206d2d8f5a"),
    "verify thm4.1 --n 10 --kind complex": (0, "dcaee8fa81268ec3ce99c54aacab4209fef17d39cf33da620c55559d3cbeadbf"),
    "verify eq4d --n 10 --kind complex": (0, "3dd918394ab63324e97c44844b3de3f5d119bb5f5e6ee2e7104cf2730084907a"),
    "verify lemma4.9 --n 10 --kind complex": (0, "c6f0eb3b5e14018bd080828c8487058c3cc9ff1ec291df2d70804e8752f71204"),
    "verify thm1.5 --n 10 --kind para": (0, "7df0bc5d0b9ea6a365ddd86b438796e019c0dce9f0aa181e90fa74e315190db6"),
    "verify thm4.2 --n 10 --kind para": (0, "b361aeb3d1bd75e126214aef6b7a346b9f12719839489d1a21d6fd2313d16ad5"),
    "verify thm4.1 --n 10 --kind para": (0, "2b3f47c6de5ae493d80ef7e0b6a383361720b729a70f4684572f6521e45cdbff"),
    "verify eq4d --n 10 --kind para": (0, "9c5471cdff7db1628786cb1f8f5903a889368ec11d6d438214987025c785349a"),
    "verify lemma4.9 --n 10 --kind para": (0, "57c865b8b9a6080aeabf0f1381e349a88802a944820407f1c1da3c4976d42594"),
    "verify thm4.2 --n 5 --kind none": (0, "4e67dc0837c47beaacd5cc191c4240c1fc53287117cecff3d75a74754e131c43"),
    "verify thm4.2 --n 7 --kind none --sig 4,3": (0, "5386fba060361eed0ef47a06b81341ae7608f824d29d351de4b94b5e283d256b"),
    "dims --n 7 --kind none --sig 4,3": (0, "3ec3a99ee6268ac280f0fc7e4e21a66b153c08132279e299ff4e500ef52382bc"),
    "verify thm1.5 --n 8 --kind complex --sig 4,4": (0, "2a896d7bbadc2404a284b9c2b7c3830c5b87a2318a7f630c2a47ca7e2eb647b3"),
    "verify thm1.5 --n 8 --kind complex --eps=+,+,-,-,+,+,-,-": (0, "24f51fbbc802e9a78eb3c4a7124fb159d1a782d894d9c7b76fae04861a7995bf"),
    "verify thm1.5 --n 8 --kind para --eps=-,+,+,-,+,-,-,+": (0, "96709c2283fdc55fe18d71bda20d6a3d55b35a8399b590a368ff21b79a99ee93"),
    "dims --n 8 --kind para --eps=-,+,+,-,+,-,-,+": (0, "c44ded1073d942b97838efaf83a7352557f88681ce2c7e2319715321b0c3921e"),
    "verify thm4.2 --n 8 --kind complex --sig 2,6": (0, "38d4a2501c4eb41fbf86805bf06148511747f955db9ae63ce5d4e4020d13c1e2"),
    "verify thm4.1 --n 5 --kind none": (0, "a001bca762d62e97d6f89693fe5621fb29c3eef2fec80de5b5fed2d0b1a3a1d3"),
    "verify thm4.1 --n 7 --kind none": (0, "bc21935d6663e954a9279fe898969a324fe0b6e66cde970e4d6782010ab5f8df"),
    "verify thm4.1 --n 7 --kind none --sig 4,3": (0, "a6d9a2613451462c0f11ade31e5949574b495c9d5d30fcae00bd29122d5728c8"),
    "verify thm4.1 --n 8 --kind complex --sig 2,6": (0, "09fa15c15a0242e6a851535c35cb06d9441d5e316b63af02a73402a07b3a1caa"),
    "verify thm4.1 --n 8 --kind complex --eps=+,+,-,-,+,+,-,-": (0, "c92ddf3ec7d6ff4ec5a080938e3c3bb3097e3a5f6e6c9157f71b8c16e3c3b9cf"),
    "verify thm4.1 --n 8 --kind para --eps=-,+,+,-,+,-,-,+": (0, "41ef72ed4c4ca07d07cb3b151c89ed641ede300faa27b81eddfd01911f4a5231"),
    "verify thm4.1 --n 9 --kind none": (0, "6a64ae72204f7fdc33e3e5b58dcb2ed5cdc952111cb1dd10170d84467abe578d"),
    "verify thm4.1 --n 12 --kind complex --sig 6,6": (0, "b3b8336428b3ae84d6f9c5e61e051b4f5f2025a54faa69adb5b16f627a8fd9b4"),
    "verify thm4.1 --n 10 --kind para --eps=-,+,+,-,+,-,-,+,+,-": (0, "f3fd6b0900d90378a2a141c5664e8d3eea873ea4db4e3cbcf4905c61c5a2f70b"),
    "verify sec5 --n 10 --kind complex": (0, "2b441c37bf8aa2b0a3796ff2237fc4a0e53400ea5d4cdf71d7d5f429885f5900"),
    "verify eq4c --n 10 --kind complex": (0, "de13f77f67319c20f9af099a2db79fe14fe24516230387a1be541681e7681ff5"),
    "dims --n 10 --kind complex": (0, "590192496a6e05a26e5742d181cd600ab200a1b22842d2e00c1220b6762a2362"),
    "verify sec5 --n 10 --kind para": (0, "6c2dff62fae51bce46131c522b3cbd0cf42ebe9682d4657561f8aa87c2aeaf7e"),
    "verify eq4c --n 10 --kind para": (0, "ac388e70eb211cceafeb9c8309bf7b3635496f16ed65f607a9133b08f0d55578"),
    "dims --n 10 --kind para": (0, "bb085cd0ed953fc20ee5b843439fcee6cb98c33a9fa36844165456a97383298f"),
    "verify sec5 --n 8 --kind complex --sig 2,6": (0, "ed3b90c3c9dd02d6edceee5ba10c93bad3c98a418ced800356291a8a91d9d87c"),
    "dims --n 8 --kind complex --sig 2,6": (0, "25b9f1c361ef8867c9324b674d4b2553a242ed83b12b0ac029225477cc94cafc"),
    "verify sec5 --n 8 --kind complex --eps=+,+,-,-,+,+,-,-": (0, "ad2c55961dd64aadcfb6fafe9728a6bf6497644bdf04556d4b8846fde6de34fa"),
    "verify sec5 --n 8 --kind para --eps=-,+,+,-,+,-,-,+": (0, "79ec6cce652acfcb2ce327c698a13fefd676bc86dd9905c18f0369d40a279dbc"),
    "verify eq4d --n 12 --kind complex": (0, "0ae1c65090cf9e016bc9ee80be39bcbc2e4652798209ea6a3530092e2f88b6df"),
    "verify lemma4.9 --n 12 --kind complex": (0, "eeb1b138f0793cfd6606f4b4ed9e8f8209a85b647607ea64dcfc8b6d9108b5fb"),
    "verify eq4d --n 12 --kind para": (0, "448a50ade7def1382bc5e6f8708a733f2e6d749eef2f8c6faeacabb57e0be296"),
    "verify lemma4.9 --n 12 --kind para": (0, "2b7f3555e35feb378207c265fb57375dfcf0d8ebfdc4918584cb14f7ec55a694"),
    "verify eq4d --n 8 --kind complex --sig 2,6": (0, "ed517e909421c7a4c9a69b91a318e8af48631fca99031418eaf4b10ccd0056d5"),
    "verify lemma4.9 --n 8 --kind complex --sig 2,6": (0, "1573f6ee3d5524ecef3da73fb328f8a58c4a4056d2ebc32937043190c4ca4525"),
    "verify eq4d --n 8 --kind complex --eps=+,+,-,-,+,+,-,-": (0, "ddb2ea66ea604521f2bd698318828bc148f3226ddf1e5656570fc7f7282d669c"),
    "verify lemma4.9 --n 8 --kind complex --eps=+,+,-,-,+,+,-,-": (0, "239b6452341999ebef659a90e06d3fd4410fcb77777136d5db9b7aea023a2b57"),
    "verify eq4d --n 8 --kind para --eps=-,+,+,-,+,-,-,+": (0, "d86a0642cd53cf28b4e032742a2551b5d8f4bfb025cb66f2029846d16edec4dc"),
    "verify lemma4.9 --n 8 --kind para --eps=-,+,+,-,+,-,-,+": (0, "578e7f8579d63ccaf9fce0c56e3f3f6283908daa89f292bc0e45bb017c889b37"),
    "verify eq4d --n 6 --kind para --format md": (0, "e290ef4c028c78994aeabf65f750ccce0d7516040180563e7f4b1d11a0bb9cf3"),
    "verify lemma4.9 --n 6 --kind complex --format md": (0, "d2ccc7a37e69b46e797b60184456e5a9a6296c0f5bbed4c3f8bfd1edb30d0c66"),
    "verify thm1.5 --n 4 --kind complex --format md": (0, "7ad4c4c10f34ae68054862a3b5970e15b8b3ad4145f9a5c0a56e82e23cb3cd04"),
    "eval nijenhuis --n 6": (0, "df46ddbc2f2f46b40ee087bae5f46b47c34c6c3e8f6392f85ae9753abf9a6769"),
    "eval nijenhuis --n 4": (0, "76f2cdd24ee11faae00e3da736317c95e7a4bbedbf2917c18f04153d29b7a8ad"),
    "eval nijenhuis --n 6 --kind para": (0, "df46ddbc2f2f46b40ee087bae5f46b47c34c6c3e8f6392f85ae9753abf9a6769"),
    "eval nijenhuis --n 6 --kind para --plane 1,4 --xy 1,4 --rotation hyperbolic": (0, "85518682b7292fe318b0021ac25f2a148da418317137bcf03057a016ea1f01f1"),
    "eval nijenhuis --n 6 --sig 4,2 --plane 1,5 --xy 2,5 --rotation hyperbolic --slope=-2/3": (0, "4e4eaadd05c8d062ab9d5d5dc6e77d960669e0dd1c5d70714c1352a7c06a9699"),
    "eval nijenhuis --n 6 --sig 4,2 --plane 1,5 --xy 1,6 --rotation hyperbolic --slope=-2/3": (0, "c46b146438cce2d021b306038e0db795292bb19807b9fa904db28674e08c4ce2"),
    "eval nijenhuis --n 6 --slope 0": (0, "25385f8a1c85423f3baf98f05482a239bc655ddd714180bbdc0c6fca4790035d"),
    "eval nijenhuis --n 6 --kind para --format md": (0, "61ae3f9b9d64555df82f2d0cd71cd36f2b66d9fd18bc4671d34dbb9847c92306"),
    "eval nijenhuis --n 4 --kind para --plane 1,2": (2, "763634d7e8aea1e72c5c4e4ac2fa63995233160ec91c2145c9f62ac373d2a475"),
    "eval nijenhuis --n 6 --rotation hyperbolic": (2, "a538e0844fe725850caa0ec661120c813dd71524d71550e7c250c1ea8e431965"),
    "eval nijenhuis --n 6 --kind none": (2, "6bdf5cf99b2071ca47b7b8356f5dbbc70d916a4dfd332ec5056621e305082fcf"),
    "eval sigma --psi omega --idx 1,4,3,1 --n 6": (0, "ab012c9f618bd82b60c4f57b820d4556f8f89c47d0835e73fde20d2a2bafea23"),
    "eval psi --psi opposed --idx 5,6,1,4 --n 6": (0, "2164ac695586949fa2ca434666a9ef6cf377bd6de9ea3e9854f224883c0efe49"),
    "eval invariant --tensor omegaxomega --perm 1,3,2,4 --word 11": (0, "ca9adccffc8facd64a9fe5151f25193ca6319929648da7413b87f1343938ebee"),
    "sweep --ns 4,6 --claims thm4.1,thm4.2,thm1.5,sec5,eq4c,eq4d,lemma4.9": (0, "04c29814298f2d72947cfbe59605cfa0c0067ec5cd391b711365a2c199427579"),
    "sweep --ns 4,6 --claims thm4.1,thm4.2,thm1.5,sec5,eq4c,eq4d,lemma4.9 --format md": (0, "f83ba34629dab1a147fa3aefc9d2dfd440e6c8fa4d9e31dbfd100660d19c1806"),
}


@pytest.mark.parametrize("command", CASES)
def test_report_bytes_unchanged(command):
    assert run_digest(command) == GOLDEN[command]


NIJENHUIS_GRID_DIGEST = "2688c36d38798c767a2f24d5a2e896233b905a1de173b76450aea6a76dbe33fb"


def test_nijenhuis_grid_bytes_unchanged():
    assert len(NIJENHUIS_GRID) == 648
    assert grid_digest(NIJENHUIS_GRID) == NIJENHUIS_GRID_DIGEST
