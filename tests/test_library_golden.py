"""The theorem library's trees, pinned by the sha256 of their reprs.

The tables were recorded from the Python constructor builders the library
had before its lemmas were written as text in the notation, so any rewrite
of ``lemmas`` or ``corpus`` must give the same trees, names and binders
included.  The numeral proofs must also share their successor chain: a
level adds a constant number of distinct nodes.
"""

import hashlib

from izf import corpus, lemmas
from izf.syntax import SHAPES, Node

# every mk_*(), *_formula() and build_numeral_proof(n) for n <= 5
LEMMAS = {
    "mk_eq_refl": "f4c8689896b9d4b6a743abad22dc24b87e3649f3661566ffba7a151f34607acc",
    "mk_eq_symm": "cb400d20e9b0cf3b074a186860df30bd9b5e6b5bf6ce6bb8552a420478146bde",
    "mk_eq_trans": "c74ad8f3edca830b92d8c2cc1a17e410ff547e02687202462093484053ff10ff",
    "mk_lei": "8e9d3c73280d3332e0e2f6c45e84acc87e36ecabe7a7a9904ac9ebd8739a189e",
    "mk_ext": "9511c2a75d90c3fc8433c2fdc0126e722c599e82559ae74473e6d7784ea4feef",
    "eq_refl_formula": "80ebdc84890f1a089ba19839d1d8bfbb46729ddf410160e192954c48fdc9fbc8",
    "eq_symm_formula": "ff34a55d2feec545d7373dec4216873a50ef57b857bf445f9e691087732b095f",
    "eq_trans_formula": "0e7103d98c7ad18b98ecc7f147b6170cf1664246d4cf5823d8b25dd6d4227418",
    "lei_formula": "c4b3e86855975c502a912da14f2e3b53fc8bf1a6ecb4f684de77b0013b9c51e8",
    "ext_formula": "a00da5010b0c46ed8eae336a354334660b584a36df30491662549e3996e0297e",
    "build_numeral_proof(0)": "bfc85552752c7b340fd1cbd44c58d02a92e00ebb751e7a6d0440b715daf516dd",
    "numeral_mem_formula(0)": "004443c9f43b657aafbf680e33e0c315aed0a3f537528fbaac679c541aa33724",
    "build_numeral_proof(1)": "0f1435d007eec0e54ea0533fc0caee97a2439545ba6c07091edd5a7cc1736f36",
    "numeral_mem_formula(1)": "d68da7cc9602283fea53569a9f1ffb709ef2cc3770b6593bbde7e942788562d3",
    "build_numeral_proof(2)": "918470ee33a916f91c934f8fe3adc6bcecb17ea0b3c40564b8ff7ef92eb16034",
    "numeral_mem_formula(2)": "ab18f5d0f095d3ccda5b027354180695974cb19011fb2249884e66fb3c72f050",
    "build_numeral_proof(3)": "cd9acbd81246de55bacf3dc9be687e014b3e3fa24b70d09b1645bd875cf01e1b",
    "numeral_mem_formula(3)": "ec1eef537ce925c8995588cd833cbc1ffbccf4404c2f14a8cfca52f7e1c2a603",
    "build_numeral_proof(4)": "1d2def98b1f13b22b7958dc9d323d746457c133e2214d704cd8ce3cbb09b3db6",
    "numeral_mem_formula(4)": "00e4a557007bc564f09b34f871999ee8f7ec359e84dc1a45a3ce83cbb30d6486",
    "build_numeral_proof(5)": "08bd0494a1375ed15cf1a1e2f2cade0b834ab2f57511e65ff7aa753b5f1df071",
    "numeral_mem_formula(5)": "1a61c1bd61aec2d44b43d8613911fcfa6a0a0d477876eaebea101eee0b25300a",
}

# every corpus.all_entries() entry, in order: name, formula, proof, status, bounds
ENTRIES = {
    "ax_empty": "de1c0ab79d6c1d674cfaac9b4e02a37abb5f4c152a9147fd4eaf5b5827519ec4",
    "ax_pair": "c9a2d32555213425dd19ff5aacd3b2b0f21b2fc7ca19e72a3a12458aad902be3",
    "ax_inf": "1e376762147d4509d3b845eca831be1820d69f1e57a962ee5841cec57879db1a",
    "ax_union": "e3c7a7d3ec3a34c472276384427f5fcf81e269a27b13a5e1dc3bfab1a11878a3",
    "ax_power": "9934777d4f5a52d4889a198c9164e59e76272fa2b1aada1a64b5f1861ab7b742",
    "ax_sep": "0d59530bdccc8ef831feffd3c37ec3bf6cc946207f2f6654e027b862e847049e",
    "ax_repl": "03a676e7bdfc9a977a5fc5d64cf587bfa67ca07e327f5ba67a295de02d97100a",
    "ax_inac1": "1f650206fb3703621e4a36cd6bca349641e94aa6d17e30257eb4de1549a41aaa",
    "ax_in": "e24740c06045f6dcbc698c7dcf27f9f19618fc280c1ca06cc4420908429ed99d",
    "ax_eq": "8760d12d08e75b86c97200a7b8b44841adad0acf9af049616d87ab79167f4ae8",
    "ax_ind": "57b90e49cffd506c5135f5348add2ec1465e5c45f3c51df3a4aaefc04f67fb50",
    "eq_refl": "3aed74e62c12502109c59c599fb3acb80ff44fda8cbd27de0895ce7b29ef4660",
    "eq_symm": "3699197b1af7f29801ecdc1363414fd89d92052633b0a0252434e14599952dcd",
    "eq_trans": "5c7a2ac8ee88ab7b134eb2df9716fefaf7f47fe9881854bc83bf427fd2a2f6f9",
    "eq_lei": "4156996b496db601ab2919773fef0921c0f22a8a669e98e18a80f5770ec72ac2",
    "eq_ext": "ed0620820b33a0c45b1fb4ee8c11b0b0390f3e8c7b6ca77a5a0d3e846b9df3f3",
    "num_0": "042b0fcad999b2ff4730284e759d3ced24410ecf9c886ca2ae6e2b2ea3d40dbc",
    "num_1": "97da86fe4b126e559dc3e94496591247bf9e54330048bd6d7cae6926f57f2fb2",
    "num_2": "cec9c8f4405f65caa0256fb97f20304868c79d8e70badf9ec4a3480100495040",
    "num_3": "b6ba457a3048b9a39aa0dc2e0ccdb0f8ad7dc89cc390c2d122279a4d730378d1",
    "num_4": "39c8e072de361b4a3a5b9a86efa4db9bc8353168160f78d9abe3e924aab3ab9f",
    "num_5": "c4ddd4386eba6bcffd2bc5d2f5e987e899c9dc155183a4d38335ac4043644591",
    "red_beta": "731b46830b4f027c6a44fd2b55fa70cab5af763b7d0a098215be76fad262dc39",
    "red_proj": "8adc1891922457e26831da21111a04fa2968508ff434be8c13812eba4a772b24",
    "red_case": "5f647d346ddfe2028a3506277c8afc547e3183596333f0774828cc6ee28ca5ae",
    "red_cancel": "fce5bdb0f97d30bd42c775f8277259d9bbc91d00fafbc25d536f2fb601c271d6",
    "red_let": "589e7719b1e4025d470cbfc6ca47a3342f718f47d587e06630d9efe46dc69107",
    "red_refl_at": "d5256cb6962f95aaf5073bd2024da526f2d1a0cc62c3c58d820295fe0737c7a0",
    "red_symm_app": "706db471ecdf9eb61c3665fee948a8174ce5f15e452e7f8d0316e207dea70992",
    "red_trans_app": "43d38c0120a61801690ae1bb9bc75917e945720e6ed83f41ae6be115f7301061",
    "red_lei_app": "fc47ac8fc66c6a76401e231d9edfe46a307b2973d299f632416b20cba1b45b8f",
    "red_magic": "07fc9f8b60e119af3f70d451924ae0e1af49addf30de91ab166087f52ea9aab1",
    "nwf_l0": "316e542a80e0823ae54b223d354936d330ea6decfe12980431e5ccd17d108fe7",
    "nwf_l05": "8bb7b96b21862d86b598f1cf3ab251aa741f745523687c20100727790456b0c3",
    "nwf_l1": "d421d489482660751f689e29ca101dbd47b37508750e4efc6ffc329a9556db10",
    "nwf_l2": "d404b91719423ef7b637ccb625cdd8007a85a37af985cd1cbf71629ddc8857d2",
}


def _sha(x) -> str:
    return hashlib.sha256(repr(x).encode()).hexdigest()


def test_every_lemma_builds_the_recorded_tree():
    got = {}
    for name in LEMMAS:
        if "(" in name:
            fn, n = name[:-1].split("(")
            got[name] = _sha(getattr(lemmas, fn)(int(n)))
        else:
            got[name] = _sha(getattr(lemmas, name)())
    assert got == LEMMAS


def test_every_corpus_entry_is_the_recorded_one():
    got = {e.name: _sha(e) for e in corpus.all_entries()}
    assert list(got) == list(ENTRIES)
    assert got == ENTRIES


def _distinct_nodes(x: Node) -> int:
    """Nodes of x counted once each by identity: the size of its DAG."""
    seen, todo = set(), [x]
    while todo:
        y = todo.pop()
        if id(y) in seen:
            continue
        seen.add(id(y))
        for f in SHAPES[type(y)].fields:
            v = getattr(y, f.name)
            todo.extend(u for u in (v if type(v) is tuple else (v,)) if isinstance(u, Node))
    return len(seen)


def test_a_numeral_proof_level_adds_a_constant_number_of_nodes():
    sizes = [_distinct_nodes(lemmas.build_numeral_proof(n)) for n in (40, 41, 42)]
    assert sizes[1] - sizes[0] == sizes[2] - sizes[1]
