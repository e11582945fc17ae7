"""Golden digests: bit-exact pins of the batch results that no oracle test fully covers.

Each entry is the sha256 of a little-endian int64 copy of one array, so that
neither dtype nor the width of intp moves a digest.  They pin:
- FieldTables.batch_eval on seeded coefficient rows, on query fields and on
  fields whose packed sums need more than one word;
- FieldTables.pow_outer over every (x, e) with 0 <= e < q;
- every Rank2Sweep array on criterion 4's fields plus 19^2 and 127;
- Rank1Sweep.weights on criterion 3's fields;
- chain_value_tables of the length-1 and length-2 chain grids;
- the FieldTables tables exp, add, mul, neg, inv0 and add_inv, on fields of
  characteristic 2, odd prime fields and odd extension fields.
They add to the oracle tests and replace none.  A change that moves a pinned
result on purpose says so in CHANGES.md, with the old and the new digest.
Print the current digests with `PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib

import numpy as np

import ffperm.carlitz as cz
import ffperm.fastfield as ff
from ffperm.gf import make_field

EVAL_FIELDS = [(7, 2, 8), (53, 1, 8), (73, 1, 8), (5, 2, 500), (2, 8, 4), (2, 9, 4), (3, 6, 4)]
POW_FIELDS = [(5, 1), (3, 2), (2, 4), (127, 1)]
RANK2_FIELDS = [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3), (7, 2), (11, 2),
                (19, 2), (127, 1)]
RANK2_ARRAYS = ("a1_idx", "a2_idx", "a3_idx", "weights", "degrees", "special", "case_a",
                "case_b", "gamma_idx", "exact_rank2")
RANK1_FIELDS = [(5, 1), (3, 2), (5, 2), (3, 3), (7, 2)]
CHAIN_QS = [(5, 1), (7, 1), (2, 3), (3, 2), (13, 1)]
TABLE_FIELDS = [(2, 1), (2, 3), (2, 8), (2, 12), (3, 1), (53, 1), (4093, 1), (7, 2), (3, 5),
                (19, 2), (13, 3), (3, 7)]
TABLES = ("exp", "add", "mul", "neg", "inv0", "add_inv")


def digest(a) -> str:
    """sha256 of the int64 copy, taken 2^20 entries at a time."""
    h, flat = hashlib.sha256(), np.ravel(a)
    for s in range(0, len(flat), 1 << 20):
        h.update(flat[s:s + (1 << 20)].astype("<i8").tobytes())
    return h.hexdigest()


def arrays():
    """(name, array) of every pinned result."""
    for p, n, m in EVAL_FIELDS:
        t = ff.tables(make_field(p, n))
        rng = np.random.default_rng(t.q)
        rows = rng.integers(0, t.q, size=(m, t.q)).astype(np.int32)
        rows[1, rng.random(t.q) < 0.5] = 0
        yield f"batch_eval {p}^{n}", t.batch_eval(rows)
    for p, n in POW_FIELDS:
        t = ff.tables(make_field(p, n))
        yield f"pow_outer {p}^{n}", t.pow_outer(np.arange(t.q), np.arange(t.q))
    for p, n in RANK2_FIELDS:
        sw = cz.sweep_rank2(make_field(p, n))
        for name in RANK2_ARRAYS:
            yield f"Rank2Sweep.{name} {p}^{n}", getattr(sw, name)
    for p, n in RANK1_FIELDS:
        yield f"Rank1Sweep.weights {p}^{n}", cz.sweep_rank1(make_field(p, n)).weights
    for p, n in CHAIN_QS:
        t = ff.tables(make_field(p, n))
        for length in (1, 2):
            yield (f"chain_value_tables {p}^{n} length {length}",
                   ff.chain_value_tables(t, ff.chain_grid(t.q, length)))
    for p, n in TABLE_FIELDS:
        t = ff.FieldTables(make_field(p, n))
        for name in TABLES:
            yield f"FieldTables.{name} {p}^{n}", getattr(t, name)


GOLDEN = {
    'batch_eval 7^2': '158be7d530e9ea7906857f50e3549761995546d78a13be45213aaa379dce3855',
    'batch_eval 53^1': '3d46b8b335145a4c837b70e870fc6c9a66ca3f9151cf426ced6ad17c50cddc4e',
    'batch_eval 73^1': '7bce0e7332e17f78161ee06d3c0b755c28ad95994df9f760a149262ce0b4b4af',
    'batch_eval 5^2': 'a841e554667502b4d7770337e6e0f48dab91d66f1b557b91da60ba5aa37a2a39',
    'batch_eval 2^8': '0403a8c0e56957425a91dd893749bd24a59ea4dd104707079707d7ca1b7995a0',
    'batch_eval 2^9': '2cb5e90b2ef25bce13a0e9659ba533bf0ed2805ea6693281420185db902b5545',
    'batch_eval 3^6': 'ffb0fa86875d05fbcb468366b7afb0677d7f117bcbca2711b5d09ba0b65762c5',
    'pow_outer 5^1': '851560d3d6a0684b31affc206dcd005ab7d7b28de7b9d9aeb8fa406b20b689b1',
    'pow_outer 3^2': 'bfd896c5d5f345c52c0690a2dd46c0542f726149134b4973137e708a64258a05',
    'pow_outer 2^4': 'ee0cd7d8d6b3ea0f36424c93cf211e3e064ce18f6b443665ba3aaefd17b058f4',
    'pow_outer 127^1': '707a3b020db49e6254c2c4a7dd053e876690add4233785de1d285bd8365e5035',
    'Rank2Sweep.a1_idx 5^1': '943e2460c200801761813aff9d05bb872650942d9014c49f230a647fed1a32fe',
    'Rank2Sweep.a2_idx 5^1': '1a0dd17ad183e2aa462438f670956bbf57ebc9c1ceae80a650e62c9af7df34e3',
    'Rank2Sweep.a3_idx 5^1': '0f4f2455db8b646b97c4600d5db01c5b79f1e324d197067705084746ce69f699',
    'Rank2Sweep.weights 5^1': 'fbd1f8d99e62954983a8acf1ff3a668478e597381a5099edab0655767bdf2ac2',
    'Rank2Sweep.degrees 5^1': '9fb1c38ed6c3b16672f60e6c5212f8259d8945ac826fdb73cf54a519937fb7b8',
    'Rank2Sweep.special 5^1': '028675f319b0e5c5aa02077747b7522ed3e5a44014aa8f7207982d97cffd1627',
    'Rank2Sweep.case_a 5^1': '8207a772311936b1cdc871ecb242222ec2dcadc7714a7aa4a93a47cd1ad30d1c',
    'Rank2Sweep.case_b 5^1': '7bfb0b9c0844effbf05beae8d20ef63a703e9df0f902232bbd257cc927440b6b',
    'Rank2Sweep.gamma_idx 5^1': '1aa56882d7ec821b43553507c994f73a8f93da18f3e0c72deab6ed1b2bbbbd26',
    'Rank2Sweep.exact_rank2 5^1': 'b393978842a0fa3d3e1470196f098f473f9678e72463cb65ec4ab5581856c2e4',
    'Rank2Sweep.a1_idx 7^1': '04d9443bfcab0911030b6b19d098ad7fd1924f76db222db329fbe2a650b897cd',
    'Rank2Sweep.a2_idx 7^1': 'df9f96e7bb9cc5f454a63180fc949586a495d0998c5822a34af815b9bdc74984',
    'Rank2Sweep.a3_idx 7^1': '7c6944f2987be26da6cbdb46bb182b0e21a36eee20e29e47059e845ad30c710b',
    'Rank2Sweep.weights 7^1': '5b52d953ff99822a5d667fe4fb3848c838910684115a1c7f6d6c137eaf8c8eec',
    'Rank2Sweep.degrees 7^1': 'fccd092acb3bc1eaf120f443a57e546487cae947a7170175d0a7bd0f6de2abe9',
    'Rank2Sweep.special 7^1': '52a3e0804d93dc525ec3c67ef8ac5b01756ecf0513e36f3c19435e4c82cb5d29',
    'Rank2Sweep.case_a 7^1': 'd5f5d2bbead756b8957ddc2302f1cdc0fd66bb31ce30499e5c4c98672a800a18',
    'Rank2Sweep.case_b 7^1': '4e79794433b83e44c6825b0154060ec518a163cc4f6da5539c61948d24872a46',
    'Rank2Sweep.gamma_idx 7^1': '02280f19d37f49db4acdbcdcd0e077027f0a49fb2dbe100eafe25af13f6ddedd',
    'Rank2Sweep.exact_rank2 7^1': '59bdd2fdb10e02fc67ea13e8280390cd66fc78d2883699b35de026b246ae8060',
    'Rank2Sweep.a1_idx 3^2': '611915945f176f8685237feadd6bbea25ea9df223151d51d9bfdb30abd2e9b0b',
    'Rank2Sweep.a2_idx 3^2': '3f26da6a438d2f0210876ce35e09ec8c94e7a68df38150eaf687934282ee351e',
    'Rank2Sweep.a3_idx 3^2': '340545b87a457b20a4aa49a4c4769edae4695dea52faeed04a0b67b6670749bc',
    'Rank2Sweep.weights 3^2': '498eee715dba4640dea5815c6beee0971b8682a08b9bce3bdf352e4c075db1d6',
    'Rank2Sweep.degrees 3^2': 'ec74c2b1f866d02e5a07e2be69d7368c41e8c696bcf21968e8f931d4ab0c3446',
    'Rank2Sweep.special 3^2': '1a0295f4bf5986c5f74eca9153a6a4cb10b073a01a76ba4a457fd862c78966a4',
    'Rank2Sweep.case_a 3^2': 'ed5c4526b6434d4b6dfcb9e0cfb629971b0ec00cbd715e380c9ef37ef0c3757c',
    'Rank2Sweep.case_b 3^2': '2e80013987a0d0a6c2685117bf6a1d33e415000a7723b32a9ad2409228afd875',
    'Rank2Sweep.gamma_idx 3^2': '4b37e174df5767c0d0011122e9a24cdda1a802d7a9786ceebb8f5a97ee0e5f03',
    'Rank2Sweep.exact_rank2 3^2': '1912991bd16efcb3a0584bba78ff914b1d5e563ab71d3ae9748ea31780465bb1',
    'Rank2Sweep.a1_idx 11^1': '8db7c7b6cd41b0ec317ef4ab3a321a00dc3de825f58d5e7f44e769f76cdca559',
    'Rank2Sweep.a2_idx 11^1': '1ed330890204d3a081333a8d80339aedb6ba487141e160cc5d0b0dda53818b35',
    'Rank2Sweep.a3_idx 11^1': '654b046ae97c56a472b856129e59bd415c9cf329455031b9382336d18c299e8c',
    'Rank2Sweep.weights 11^1': 'a82298df0ef2e949d7139ee1a752a44819f4413fa568cd934f9106937b6a860f',
    'Rank2Sweep.degrees 11^1': 'e78b294533014bef39f9c2bfb8770109683320e969d6e33503d27e7bf4e1ccac',
    'Rank2Sweep.special 11^1': 'c23a5cc2d7277749c47ddcad301aa92fcbbaeab54e552813333c1306c5cf2425',
    'Rank2Sweep.case_a 11^1': 'e2a5a68007a9439f1bc234ef12a16c22cc5f2a1d3f0b0941fa883f666dcfd45f',
    'Rank2Sweep.case_b 11^1': 'c47b1d39024ecd1bac1284ab38bd731f2277522a8d49ab53b717c2e7b6165ff8',
    'Rank2Sweep.gamma_idx 11^1': '16bd14b3ffa1e7067a82e04e6c8fac36e7650ea3251f80d39a88eaab1eb2555b',
    'Rank2Sweep.exact_rank2 11^1': '77c058f568cbb171ce4f5c556433b034dea59a73a9d7620e78c9e0e13e13ac19',
    'Rank2Sweep.a1_idx 13^1': 'e53bff70f922b26484dce6d7abadf382ce7b948b4849cea423ea0f072f02db02',
    'Rank2Sweep.a2_idx 13^1': 'f2f7497a73e05c4e042ec0e783eb68abf6f7be4163877217fa7cb06bc324a39e',
    'Rank2Sweep.a3_idx 13^1': 'afe3f4c12f1781482766e7ff7ec02aeae848236aa28b6ba6944e6c88137f4850',
    'Rank2Sweep.weights 13^1': '626ee0d0d6c7ceb5b6a5f6271054255f7136dd4e38448c28b730e9a4f84d6860',
    'Rank2Sweep.degrees 13^1': '00e1d213fe509304c2ed9d7624c31daf957e690a944c94d1bba8120cf34580bb',
    'Rank2Sweep.special 13^1': '2c253d268f274610134a7a0131fbf74a507bb6726c1b2c37193efe293c352e2c',
    'Rank2Sweep.case_a 13^1': 'ad64fa17ebc0a4dfdfb4029d934a03f5182e671722cf62d21c18f6f75f8f2e9c',
    'Rank2Sweep.case_b 13^1': 'ebc11077ab4dbde2fd05a247e8dc0926e8385ba5376ed0a0d178fdb69907e694',
    'Rank2Sweep.gamma_idx 13^1': 'b00ad7f6b05671bcde432a292fff8a04371a9eb6c1493b0ce34a82995e8e9650',
    'Rank2Sweep.exact_rank2 13^1': '785d4f933cab5c8f4a0d32983c5cd6dda481faf6b28c03f42f2969e0ad021fc9',
    'Rank2Sweep.a1_idx 5^2': '2d3112e6ba96e9e6501f25256cb0260b3a5f204708f0f61aca9d21fec6197578',
    'Rank2Sweep.a2_idx 5^2': 'eae6716aa09b8a1197b6fa8ed93918a7e9044aa70f6a2b270361366bd6fe77b2',
    'Rank2Sweep.a3_idx 5^2': 'd1d1c2aa84e6155b4614ef07ded905a06606c43135ddc2171a0a484bd94c840d',
    'Rank2Sweep.weights 5^2': 'b3d51855f9de05c2e1d876ddb1492a15fa328bffb95046dad882382e36540a2c',
    'Rank2Sweep.degrees 5^2': 'cbdb53cff7f459381acec03b111fbafd3377569c9e5608dfdfd31d6b516d08e5',
    'Rank2Sweep.special 5^2': '24ddaa4710480313757f965c38d60208a334556cb244f830d5006a893edd8da7',
    'Rank2Sweep.case_a 5^2': '3d2411014fdef191da783849db03bb7f148fd1b402f5f782f7a285a0bcdab5c4',
    'Rank2Sweep.case_b 5^2': '892b264f778a3800959902b322616a4e45b504918cd9282e88ef1b430540fa61',
    'Rank2Sweep.gamma_idx 5^2': 'ac819475a0e83aa8e5145acb2c101610edb9f08f0bfcf3aae97a3716567ba822',
    'Rank2Sweep.exact_rank2 5^2': 'f4799abdb0cef6e988b8b67c31ae73ddc99cf210fe48c246cc6bc62bceb55be0',
    'Rank2Sweep.a1_idx 3^3': 'd719b28cf33b55136ab215ae813a59f9888d05ff7788bf702661123188fd7e8a',
    'Rank2Sweep.a2_idx 3^3': '2507fa13e898c1f4228ab29e529d4c62ff9826b348e3a910308d9e0662e2a652',
    'Rank2Sweep.a3_idx 3^3': '3d263034c1ebdcd8746e8730be82a331df7847aa8e13978615b47f590d87724b',
    'Rank2Sweep.weights 3^3': 'dd389930043b4c352b32ff7fe11c5ad6610450d6ddbf083f1b292cc24e502fc0',
    'Rank2Sweep.degrees 3^3': '376a0deab582eb34f2ce90f24ac95587e4d3c9ff42e0707a15df4744e4b2e5e5',
    'Rank2Sweep.special 3^3': '424ab5b733822be22bf433895a37bc44d20e51b19e42a24069beff0157c93395',
    'Rank2Sweep.case_a 3^3': 'e3e2350e9758f86f28bb2917651fa19cb310214681591a82635ac78d68fe4c07',
    'Rank2Sweep.case_b 3^3': 'a50fb02ac0e0e154721b17174c00253adbb8eb3ff58e3c6f625414c37573b89c',
    'Rank2Sweep.gamma_idx 3^3': '8f66309df5f41588522f4a6ea7ef7921591d2f67d9b778b5692fb2bc033b7d8b',
    'Rank2Sweep.exact_rank2 3^3': 'fcad5f27f363c1820d5266b2ecd8ccf444d2d9f980b65808e0e2291ee7566181',
    'Rank2Sweep.a1_idx 7^2': 'e54efc931d209a583263aa562e090342ff3c32edb4eb8d8020ea703476c52330',
    'Rank2Sweep.a2_idx 7^2': 'c00b7b03692599147bdb2ea2b4f3ce123beafa8b92912790d9653b027a018e05',
    'Rank2Sweep.a3_idx 7^2': '2bcaf909ec912624a797c46a40eb57b78a28de4f61ed2be7f77dd9c3a550e75b',
    'Rank2Sweep.weights 7^2': '98c0985bbccfa0e71c1b46dd04831270ad9000b9a5ee8d17517af3604665156f',
    'Rank2Sweep.degrees 7^2': 'c400191bc211ba6da9e85ab66cb6e9a693958e2eb7c53063e6c382322e4997a0',
    'Rank2Sweep.special 7^2': 'c858b21ce4b78945461aee9c8afc83c58d75f20f0971d70b4407538abb3f8af6',
    'Rank2Sweep.case_a 7^2': '8d5c1f1529e23c1cc7fd8492b6402797d78af12832f827c483d750d48a37339f',
    'Rank2Sweep.case_b 7^2': 'ceb6c4f362c96a0bc7f7376bd05023fbda02a3abf9c18e7a82d258b1a960eb2b',
    'Rank2Sweep.gamma_idx 7^2': 'd137cf322cf28db50390713c844e01d52625aa52b766caff7f00cc998bf9d6ec',
    'Rank2Sweep.exact_rank2 7^2': '7000f482bb39d70494485b7247ec81497825b0c78ba293c2a7fd6f35a1bf3b25',
    'Rank2Sweep.a1_idx 11^2': '380726e412effeef48d0e21b93d3c7f823922124c547288c640ccdb1e80247cc',
    'Rank2Sweep.a2_idx 11^2': '0fb4578b208218fba0f3731156baa96eaf56d66d0278833d823cb083005bb64f',
    'Rank2Sweep.a3_idx 11^2': '2dd07239a16c22f176fee0e0f2ce489321eff21dd5234fe694b0d571716bda88',
    'Rank2Sweep.weights 11^2': '5f12dc1b141aa9d762bc6be049da36eceb02a90b8037193fdb3f480e8723bf75',
    'Rank2Sweep.degrees 11^2': '883146d58db40bdf8804e6517cf96e91c57aa68aa5d5fb29670e87e19fe1d3ef',
    'Rank2Sweep.special 11^2': '4cf36fa0601b1f0f8ae3d5322bc696f4debd3ae0cb2d35964be39c7a376b0c4c',
    'Rank2Sweep.case_a 11^2': 'e939f428f1a57d7bab13feeef5aaa3e86a7685fc23e0c4dc55ed40ce2550f2db',
    'Rank2Sweep.case_b 11^2': '98aecba673ad9cfe5727e82e75826a280a21b0a0a54fb1000eb60ec557959e1a',
    'Rank2Sweep.gamma_idx 11^2': '05ddb5155cc99206a5ceb9b92ef75596afef76ca12ba13ca5f2888c2626bc3eb',
    'Rank2Sweep.exact_rank2 11^2': '540d93164c5a92a9d8c01822816b57318c511a738b7fff0711e47904542702b0',
    'Rank2Sweep.a1_idx 19^2': '912c66c0b8736c7fe19b5261e7f581eed70913c4f6ba24f992253b7749d2b1c5',
    'Rank2Sweep.a2_idx 19^2': '45001fd00a4304e46e3a911943d77cd3ee62f7daa13831caf77ca8a7fd402643',
    'Rank2Sweep.a3_idx 19^2': '2da5df671c0ae971b51d2c723084a29749bfa2cdf22ec763a3f798fe221a1e7b',
    'Rank2Sweep.weights 19^2': 'f9d90fde1bb11346cd21773c9e448201412e78f62d8bf18e067bde5ec47c4c85',
    'Rank2Sweep.degrees 19^2': 'fa1d41b6762cd82f197c15e0917b1beb92bcede9402d1ba1e84c15238f48978d',
    'Rank2Sweep.special 19^2': '8e5dcbdef049dfc39be4f22428470a3f7e1a3099e046c59237df1ddd8a6a3076',
    'Rank2Sweep.case_a 19^2': '7658a9648523cc5e1ab088ff2bd63aa58f574135cb773c25e6dcdcbcb5aa6989',
    'Rank2Sweep.case_b 19^2': '02ec7608c185ca597eb58f28cecfd98088779115302e7786b4374cfb8ac0b0a4',
    'Rank2Sweep.gamma_idx 19^2': '48871e9241cd54efad0e715e2ccbbd9ecca40f4f1e3b6829362c98b4a94182e4',
    'Rank2Sweep.exact_rank2 19^2': '4f9e29ee54f88204746a1bc3962b734cba17a7c76f60862ed41c0521ab329db8',
    'Rank2Sweep.a1_idx 127^1': '6d92e1972a29b7273d8545f6266aee06a7f0c709f6645b069bf5e92966041473',
    'Rank2Sweep.a2_idx 127^1': 'a9e21d838aa4c766e0021504f7f278d6333ee9538a59522fd356debcb08a6dc3',
    'Rank2Sweep.a3_idx 127^1': '82c0eb89498f7afc0c85b871c4bbb32e44f97f329424d833b4c21436339d264f',
    'Rank2Sweep.weights 127^1': '130c0ac71aced6351c083ea9c2a104c768da7de49d21300d8cce13066158af25',
    'Rank2Sweep.degrees 127^1': 'fddac7ab283bc8b822d52d48b38902b43b760d3960d85c8cd80681db1e1dacca',
    'Rank2Sweep.special 127^1': '6bd7be2908816dd006e3682d2b4f8ef641c7274e6dbec2970e6433bbc56a7f0a',
    'Rank2Sweep.case_a 127^1': 'c7b1bfacd3bbb5a9f7f212d98bddb44af5133d09b57eff0affacf30321a24417',
    'Rank2Sweep.case_b 127^1': 'a926be939b925c69aab28f13500ea5e51ebb862a810c0a4ac6fae592a20a7cff',
    'Rank2Sweep.gamma_idx 127^1': '2cc44b50aa46654679f06e38e571980add743293753a5b42af329b3527427b0a',
    'Rank2Sweep.exact_rank2 127^1': 'dd4d6d10fee76ea0ea9f862ba130129f48594023b3efa4db0332c652502d948d',
    'Rank1Sweep.weights 5^1': '44097116ba6ab32e7a522ff39c39039048036fc57293436317980aa5d8438f54',
    'Rank1Sweep.weights 3^2': '8a4d51787dab0813370bf49319d306d7c845426e903b97761657bf4440b23e48',
    'Rank1Sweep.weights 5^2': 'e8c10071e461f53ecd27fa1a5cfb3d38c5d46560f3a0557102c0e4b40c41adfd',
    'Rank1Sweep.weights 3^3': '9ae7292b649d8e3f48d4014c2376d50a2acc82a3654b1cb6a55bf40acca17150',
    'Rank1Sweep.weights 7^2': 'c160998194abc6343fbb54445217fd883bce781744a62f2c287be47b9e942c3b',
    'chain_value_tables 5^1 length 1': 'd9a47c102fd9107868c027e33272adbac39bdde6188b3fbd75338195723d78ef',
    'chain_value_tables 5^1 length 2': 'fdaca0da43407a35c7bef922c44a85ebb76e6c66018204f1b6fc1d00655a829c',
    'chain_value_tables 7^1 length 1': '447408ac228cdb1281b36581bb0fe2c3a1222ae60bfc622a01c7cfdda0e77d73',
    'chain_value_tables 7^1 length 2': '03bec72719854ca19300fa4ca80fe3781cb45fc673e6c97acd7ec7c241e85991',
    'chain_value_tables 2^3 length 1': 'a2a4c206d54d48fa2a5f50240acded5461231d4f9a6956cad827affb0f286275',
    'chain_value_tables 2^3 length 2': '2f88131c641acea36f18e38141f8146d80eef364034b04693fda01eded0c0878',
    'chain_value_tables 3^2 length 1': '6534e5006ff2d3ce49b818be89dfe77df6c42333e9bf381afe9380984943d681',
    'chain_value_tables 3^2 length 2': '42d8ae7d055eb0b996f830c8e6304e33c146050ae57874cc3c4bf8ab1ec81d36',
    'chain_value_tables 13^1 length 1': '751b119bfe3637c4842f32c1eae47988dd326740d11ef71a2444fccea8ea1264',
    'chain_value_tables 13^1 length 2': 'a3917cd4deaa5bfa0bca1e1ba1f1b1e92f41d73c83fbf4e0b56c4705fa0fa022',
    'FieldTables.exp 2^1': '7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8',
    'FieldTables.add 2^1': 'db7f8e2aa97f8d230fc0a6c6d68184ecfee02f4bd2e94dcb331c0d3d54ca5fe8',
    'FieldTables.mul 2^1': '013f21dd7052786e2c338b57f23ec2c7feb0c12f7b3b28fbb5affaca27103f51',
    'FieldTables.neg 2^1': '9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db',
    'FieldTables.inv0 2^1': '9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db',
    'FieldTables.add_inv 2^1': 'db7f8e2aa97f8d230fc0a6c6d68184ecfee02f4bd2e94dcb331c0d3d54ca5fe8',
    'FieldTables.exp 2^3': '267e6c3924633fc236fd1681f7a29c1aff56cfe5f44541f1c3681804451c4a29',
    'FieldTables.add 2^3': '0c36cc322607a32c2601840aee7d820a15923b3392136668df7c8d17e989bd1d',
    'FieldTables.mul 2^3': '52e25d947319a89e9f278b628450934877960e97ccbefd6460336a71e0be9df6',
    'FieldTables.neg 2^3': 'fece8d601cd4c9020e24f9e4a47feedefb2bceff5e9798d8056aea8700052eaa',
    'FieldTables.inv0 2^3': 'e7339b26d70588258575ca6cb171b9ecd17d54160b2e20a599aa09c3cd995cfe',
    'FieldTables.add_inv 2^3': 'a535ebc406283e12faa450d046d369df7c417d6a522dc6eb6683492355a6bc07',
    'FieldTables.exp 2^8': 'dd50d996236076d6a69d47b6f5092a2f07aee9f8e8de9d9873d534d3c1be2e37',
    'FieldTables.add 2^8': '8789a1484021cb8c8d76e4ebd76cfc782111d57cd7969c1fe59e0b58c9f46e6a',
    'FieldTables.mul 2^8': '7b4f9d5b6dc4f7b9f73d216b43bcb98715083b9f1d4e42923b42ff1a59362a92',
    'FieldTables.neg 2^8': 'bbd330b12e8159e117376ef24fa106413bc9fc18032a0d43e95c5dae5e47953f',
    'FieldTables.inv0 2^8': '9efaa8fb9917e2270bca0aad697f56887f221ae773eac01f6a10e91d79586ef8',
    'FieldTables.add_inv 2^8': '7868e391e6a20bcf797822b38ab1c7d157ba129b5a68cba63b09ff4f8ede19ed',
    'FieldTables.exp 2^12': '8bf9d85aa4e43c4cc5499cd4e9e91fd3c962ed1014302c1caf3ad62fda7b9a1b',
    'FieldTables.add 2^12': '8d5ac09efc39a7f56a9dfee71a213244c53edf608537e8514ad5d38f3398319a',
    'FieldTables.mul 2^12': '82f942cb177404a7cc41d951a02e5748d7a2fafdf80174334123bc41d324c6e4',
    'FieldTables.neg 2^12': 'b83e23eb1db808bf694ae4894d62b50c9840bcd869ba7ac2456f40ddf0530bf3',
    'FieldTables.inv0 2^12': '8a54c6a345446777b62c4adca1d0b0e7777b2fc4dcca36078d0404d6abd9beec',
    'FieldTables.add_inv 2^12': 'e7b5854d8e38da34d6c0bea5893a6fa64fb1898e4c5fbdd24801727aada3383d',
    'FieldTables.exp 3^1': '0c730b69905c5ef7a4ca5269f72365400bde2dd2c04eaf9bbb3d1c4a265a0131',
    'FieldTables.add 3^1': '39b5a26cf03bff464965d7ec144cb47b82d08f2515fd002d90938db9c0bce396',
    'FieldTables.mul 3^1': '700c6daf40792c6cfe05bb5f47b8baf925f68a582bcb1213ee0f6ccfab6ed101',
    'FieldTables.neg 3^1': '0f004f117335020e1d19c25b8767278bf1edb2fa6ff3fac943d843b6003d0eb5',
    'FieldTables.inv0 3^1': 'ab25350e3e65efebe24584461683ecda68725576e825e550038b90e7b1479946',
    'FieldTables.add_inv 3^1': '39b5a26cf03bff464965d7ec144cb47b82d08f2515fd002d90938db9c0bce396',
    'FieldTables.exp 53^1': '95694a96309aff66294ac9535126b355410f576998e9476656d363389bd1a7ce',
    'FieldTables.add 53^1': 'f109063bb06069b02537fc45685ea64755b2eba2f9e026c5d576ff8bdd88fb22',
    'FieldTables.mul 53^1': '41168bc5f8c7be98001e3aef11fe27c6022653cc762eef83913fe4bee19e69ed',
    'FieldTables.neg 53^1': '2905df363e6a63b079d73d0ee19426575a9c9edf01cbabe65c6f59b439f91a3a',
    'FieldTables.inv0 53^1': '248dd9304d031a973c1cc481e7acb99cdb49a0e130e26e4c3126716fe50ba6c8',
    'FieldTables.add_inv 53^1': '6c45a4d751842669131551eb12ae828ca23376aaf2becad293abde63538bb08c',
    'FieldTables.exp 4093^1': '267d51552bd7abcb6a7edabb271464faca2381fa8a5ee10555c5ab031f7ccaf6',
    'FieldTables.add 4093^1': '2c56c25ddc3b880c88ec59ba616438609528b69a9e86daba091b96c31f517148',
    'FieldTables.mul 4093^1': '611f39ef38e68a49fac1af393f16f76e7d1cd16da6a1c299b0fd2460c3dafdf5',
    'FieldTables.neg 4093^1': '3ea2a609f6714bacc2ac4b2957e73162ab97a4dbe3797f2a72ec53c11dadd89c',
    'FieldTables.inv0 4093^1': '81ac9b679e9ed9f4ab8512a61e269ab92d20dac93ec9bed0bc4b57ca70ff659e',
    'FieldTables.add_inv 4093^1': '91aa7425ef10af4dd5975f1ca26ef2aeb52ef8246ae10b45d8c8f6d389f33816',
    'FieldTables.exp 7^2': 'b7eefa8af3f7aa5043e54e29852929e3698b1af2192fe642a4c6eb4dd40b4bc7',
    'FieldTables.add 7^2': '73678cf071cf7baa368761afbf0570d3245563f1094f871f24f18f8623a8392d',
    'FieldTables.mul 7^2': '3c4479176118c62c4644fbe0672e317f3bc1148fd59cb6e78946aeb5566a8286',
    'FieldTables.neg 7^2': 'f4bbfebcd7279250c01e7647f88e3571eac87e516eed6060fe7f2bb078dd9339',
    'FieldTables.inv0 7^2': '9c0177d30e5cb97adab14c1a233eafc70441ff0574e60cdb6287afbea4fb824a',
    'FieldTables.add_inv 7^2': '13fff72b3e6c6cd4b57efaec454b6dcb9c40539e5d88b8c258775b6b0946b002',
    'FieldTables.exp 3^5': '765bbf461415130c2fed1eac8b0b59c9d623e4c06073a892e5d73c322e0be94d',
    'FieldTables.add 3^5': 'f51377565878b2dcb203916bc82a412f4d02345cd98568324d4a355d8462fcc3',
    'FieldTables.mul 3^5': 'f8e06d4cbf78375b27cd68ca347b5118b156f20ace474fef3cef7880a7a03326',
    'FieldTables.neg 3^5': 'b8be5d82384bf17ac5c7fdd67656c294ac6763e07096a99d26e430e94dcb9728',
    'FieldTables.inv0 3^5': '68d5df318348e22bae4e7cd23453a3bb02202b86b5ccb62072e70e473e2020a5',
    'FieldTables.add_inv 3^5': '541b24f8c3199156f57476393cfa683d53eeb097ee6a7e37ecf43ed71f30c0c0',
    'FieldTables.exp 19^2': '42ae4828d5b74c24fd88e344feddf269f55d16b7f2a49b07e3441095e1ad81dd',
    'FieldTables.add 19^2': '4a3224b88be234925bf8ffefca1ca1b65e063d122084fcb6aa855cc177ed03af',
    'FieldTables.mul 19^2': 'e99368b4166ab4eb8fd431cf003a59dd345f1ab54ab0ca17db4289c613d6ee6d',
    'FieldTables.neg 19^2': '6302c876ee186433d4e03d2ba5df8dd55eabc52585fa4dc36125fefb787a7907',
    'FieldTables.inv0 19^2': '050dea616e4825a469a9604eb1d14edd45d6436d097c80ba88bc4d1b7593304e',
    'FieldTables.add_inv 19^2': '0b15fd07da60d06fc9612978204191f440551695b3214f451a88283f83ffc590',
    'FieldTables.exp 13^3': '78f4da51c6f28db5465408f3dcd0ef247eb5a368d52e0fb63c06e23574760c8f',
    'FieldTables.add 13^3': '7931b56081b9556712edd5ca6b4a266792f54c6533ff4ea996baa7d05707f59f',
    'FieldTables.mul 13^3': '44b53a96b558df12bc3ed5a2147b2aa71512b4eeefe0e8c4b7ceb35237412253',
    'FieldTables.neg 13^3': '57354010ca5fb74477ac70389b299c2a11fb28b7a3310e4f104cf67a150227dc',
    'FieldTables.inv0 13^3': '3b0d07ab7f50efc2bf4005774498273d7737df1aaa8b3df3f02f1a457d05dd64',
    'FieldTables.add_inv 13^3': '8a8c712863122630fa6be651fad6a16ea490bf2a67b25389dc2a3c347001e11c',
    'FieldTables.exp 3^7': 'b5741c366f71ca1c64985b9e4dbcd7df8c874be008dac013ed0b6c0c2f41a49b',
    'FieldTables.add 3^7': 'f656828b36db61cd2b6be4661e9d27ecfd29cbacb3018fad05959ace8be90cfc',
    'FieldTables.mul 3^7': '1343844e032ff96ace1309da25dfc1082c9b50a565f983ffc70a69062bb2f79f',
    'FieldTables.neg 3^7': '5b3d8ec6e7af4f22f06e0a2a0aeec41d32fa68aafbcb51efcefb9797fe4e2ad3',
    'FieldTables.inv0 3^7': '6e9bd39902399a97496f90ae6ccae6085b22022a8c70902e5078c8fd319c179d',
    'FieldTables.add_inv 3^7': 'f30f54404da031b02373335a159caa523dac33acd2dca9011693723fd68fd9c9',
}


def test_golden_digests():
    got = {name: digest(a) for name, a in arrays()}
    assert got.keys() == GOLDEN.keys()
    assert {k: v for k, v in got.items() if v != GOLDEN[k]} == {}


if __name__ == "__main__":
    for name, a in arrays():
        print(f"    {name!r}: {digest(a)!r},")
