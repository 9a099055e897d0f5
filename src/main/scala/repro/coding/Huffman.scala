package repro.coding

import java.io.ByteArrayInputStream

/** Canonical Huffman coder over Long symbols — the variable-length coding
  * choice of §6.2.2. The coding table is serialized compactly (symbol
  * varints + one length byte each) so the table-vs-payload tradeoff the
  * paper measures in Table 3 is faithfully reproduced.
  */
object Huffman {

  /** Histogram of a symbol array, with no boxing: `ids(i)` numbers the
    * distinct symbol of element i in first-occurrence order, and
    * `symbols(id)`/`counts(id)` describe that symbol. */
  final class Histogram(val ids: Array[Int], val symbols: Array[Long], val counts: Array[Long]) {
    def size: Int = symbols.length
  }

  /** Codes below this (and below 8 per element) are counted in a dense
    * array indexed by code; others in an open-addressing table. */
  private val DenseCodes = 1 << 16

  /** Histogram of `a`. */
  def frequencies(a: Array[Long]): Histogram = {
    var or = 0L
    var i  = 0
    while (i < a.length) { or |= a(i); i += 1 }
    histogram(a, or, Int.MaxValue).get
  }

  /** Histogram of `a`, whose values OR to `or`; None as soon as more than
    * `limit` distinct symbols appear. */
  private[coding] def histogram(a: Array[Long], or: Long, limit: Int): Option[Histogram] = {
    val n      = a.length
    val cap    = math.min(n, limit)
    val ids    = new Array[Int](n)
    val syms   = new Array[Long](cap)
    val counts = new Array[Long](cap)
    var m = 0
    var i = 0
    if (or >= 0 && or < DenseCodes && or < 8L * n) {
      val slot = new Array[Int](or.toInt + 1) // code -> id + 1
      while (i < n) {
        val c = a(i).toInt
        var s = slot(c)
        if (s == 0) {
          if (m == limit) return None
          syms(m) = c; m += 1; s = m; slot(c) = s
        }
        ids(i) = s - 1
        counts(s - 1) += 1
        i += 1
      }
    } else {
      // Linear probing at load <= 1/2: the table has >= 2 * cap slots.
      val bits  = math.max(4, 65 - java.lang.Long.numberOfLeadingZeros(math.max(1L, cap.toLong)))
      val mask  = (1 << bits) - 1
      val keys  = new Array[Long](1 << bits)
      val slot  = new Array[Int](1 << bits) // id + 1, 0 = empty
      while (i < n) {
        val k = a(i)
        var h = ((k * 0x9e3779b97f4a7c15L) >>> (64 - bits)).toInt
        while (slot(h) != 0 && keys(h) != k) h = (h + 1) & mask
        var s = slot(h)
        if (s == 0) {
          if (m == limit) return None
          keys(h) = k; syms(m) = k; m += 1; s = m; slot(h) = s
        }
        ids(i) = s - 1
        counts(s - 1) += 1
        i += 1
      }
    }
    Some(new Histogram(ids, java.util.Arrays.copyOf(syms, m), java.util.Arrays.copyOf(counts, m)))
  }

  /** A built code as flat arrays. `symbols`, `lengths` and `codes` are in
    * canonical (length, symbol) order, the order of the serialized table;
    * `idCodes`/`idLengths` hold the same codewords by histogram id. */
  final class Code(val symbols: Array[Long], val lengths: Array[Int], val codes: Array[Long],
                   idCodes: Array[Long], idLengths: Array[Int]) {
    def maxLen: Int = if (lengths.isEmpty) 0 else lengths(lengths.length - 1)

    /** Exact payload bits to code the histogram's array with this table. */
    def payloadBits(h: Histogram): Long = {
      var bits = 0L
      var id   = 0
      while (id < h.size) { bits += h.counts(id) * idLengths(id); id += 1 }
      bits
    }

    /** Serialized table size in bytes: the count varint, then a symbol
      * varint and one length byte per symbol. */
    def tableBytes: Int = {
      var bytes = Zigzag.varLongLen(symbols.length.toLong) + symbols.length
      var k = 0
      while (k < symbols.length) { bytes += Zigzag.varLongLen(symbols(k)); k += 1 }
      bytes
    }

    /** The serialized table, [[tableBytes]] long. */
    def table: Array[Byte] = {
      val out = new Array[Byte](tableBytes)
      var p   = Zigzag.putVarLong(out, 0, symbols.length.toLong)
      var k   = 0
      while (k < symbols.length) {
        p = Zigzag.putVarLong(out, p, symbols(k))
        out(p) = lengths(k).toByte
        p += 1
        k += 1
      }
      out
    }

    /** The codewords of the histogram's array, one after another. */
    def encodePayload(h: Histogram): Array[Byte] =
      BitPack.pack(h.ids.length, payloadBits(h), i => idLengths(h.ids(i)), i => idCodes(h.ids(i)))
  }

  /** Build a canonical Huffman code from a histogram. Returns None when the
    * code is unusable (code lengths exceeding 58 bits, which cannot happen
    * for realistic block arrays but guards adversarial input). Equal
    * weights merge in first-occurrence order, which fixes the coded bytes.
    */
  def build(h: Histogram): Option[Code] = {
    val m     = h.size
    // Code length of each leaf, indexed by histogram id.
    val depth = new Array[Int](math.max(1, 2 * m - 1))
    if (m == 1) depth(0) = 1
    else if (m > 1) {
      // Array-based Huffman tree: leaves 0..m-1 (the histogram ids),
      // internals m..2m-2. Leaves are sorted once by weight, ties in
      // first-occurrence order (a packed primitive sort); merging then uses
      // the classic two-queue scan (internal nodes are produced in
      // non-decreasing weight order), so the build is O(m log m) with no
      // boxing.
      val weight = new Array[Long](2 * m - 1)
      val parent = new Array[Int](2 * m - 1)
      val leafQ  = new Array[Int](m)
      locally {
        val packed = new Array[Long](m)
        var k = 0
        while (k < m) { weight(k) = h.counts(k); packed(k) = (weight(k) << 31) | k; k += 1 }
        java.util.Arrays.sort(packed)
        k = 0
        while (k < m) { leafQ(k) = (packed(k) & 0x7fffffffL).toInt; k += 1 }
      }
      val nodeQ    = new Array[Int](m - 1)
      var leafPos  = 0
      var nodeHead = 0
      var nodeTail = 0
      var next = m
      while (next < 2 * m - 1) {
        // Merge the two lightest nodes; a leaf wins a weight tie.
        var j = 0
        while (j < 2) {
          val pick =
            if (leafPos < m && (nodeHead == nodeTail || weight(leafQ(leafPos)) <= weight(nodeQ(nodeHead)))) {
              leafPos += 1; leafQ(leafPos - 1)
            } else { nodeHead += 1; nodeQ(nodeHead - 1) }
          weight(next) += weight(pick)
          parent(pick) = next
          j += 1
        }
        nodeQ(nodeTail) = next; nodeTail += 1
        next += 1
      }
      // A parent always has a larger index than its children, so depths
      // fill top-down from the root (2m-2, depth 0).
      var k = 2 * m - 3
      while (k >= 0) { depth(k) = depth(parent(k)) + 1; k -= 1 }
    }
    var maxLen = 0
    var k = 0
    while (k < m) { if (depth(k) > maxLen) maxLen = depth(k); k += 1 }
    if (maxLen > 58) None else Some(canonical(h, depth))
  }

  /** Assign canonical codewords given each histogram id's code length:
    * symbols are ordered by (length, symbol) through one packed primitive
    * sort of (length, symbol rank) keys. */
  private def canonical(h: Histogram, depth: Array[Int]): Code = {
    val m      = h.size
    val sorted = java.util.Arrays.copyOf(h.symbols, m)
    java.util.Arrays.sort(sorted)
    val idOfRank = new Array[Int](m)
    val keys     = new Array[Long](m)
    var k = 0
    while (k < m) {
      val r = java.util.Arrays.binarySearch(sorted, h.symbols(k))
      idOfRank(r) = k
      keys(k) = (depth(k).toLong << 32) | r
      k += 1
    }
    java.util.Arrays.sort(keys)
    val symbols   = new Array[Long](m)
    val lengths   = new Array[Int](m)
    val codes     = new Array[Long](m)
    val idCodes   = new Array[Long](m)
    val idLengths = new Array[Int](m)
    var code  = 0L
    var prevL = 0
    k = 0
    while (k < m) {
      val l = (keys(k) >>> 32).toInt
      val r = (keys(k) & 0xffffffffL).toInt
      code <<= (l - prevL)
      prevL = l
      symbols(k) = sorted(r); lengths(k) = l; codes(k) = code
      val id = idOfRank(r)
      idCodes(id) = code; idLengths(id) = l
      code += 1
      k += 1
    }
    new Code(symbols, lengths, codes, idCodes, idLengths)
  }

  object Decoder {
    /** Lookup-table window width: codes up to this length decode in one
      * table hit. Heavy-tailed delta alphabets (sparse block ids) carry
      * real mass past 11 bits, so the window is 16 bits (a 256 KB table,
      * built in ~0.1 ms) — beyond it the canonical walk handles the tail. */
    val TableBits = 16
  }

  /** Decoder tables reconstructed from a serialized table stream, for the
    * zigzag codes of the §6.2.2 chain: [[decode]] returns every symbol
    * zigzag-decoded, which the table does once per distinct symbol.
    *
    * The table must be canonical, as [[Code.table]] writes it: code
    * lengths ascending, symbols ascending within a length, and a Kraft sum
    * of at most 1. Any other table is rejected before the lookup table is
    * filled.
    */
  final class Decoder(in: ByteArrayInputStream) {
    // Each table entry takes at least two bytes (symbol varint, length).
    private val n = {
      val count = Zigzag.readVarLong(in)
      require(count >= 0 && count <= in.available() / 2, s"Huffman table: bad symbol count $count")
      count.toInt
    }
    // Zigzag-decoded symbols and their code lengths, in canonical order.
    private val vals = new Array[Long](n)
    private val lens = new Array[Int](n)
    locally {
      var prev  = 0L
      var kraft = 0L // sum of 2^(58 - length): at most 2^58 for a usable code
      var i = 0
      while (i < n) {
        val sym = Zigzag.readVarLong(in)
        val l   = in.read()
        require(l > 0 && l <= 58, s"bad code length $l")
        require(i == 0 || l > lens(i - 1) || l == lens(i - 1) && sym > prev,
          s"Huffman table: symbol $i is out of canonical (length, symbol) order")
        kraft += 1L << (58 - l)
        require(kraft <= (1L << 58), "Huffman table: code lengths oversubscribed (Kraft sum > 1)")
        vals(i) = Zigzag.decode(sym)
        lens(i) = l
        prev = sym
        i += 1
      }
    }
    private val maxLen = if (n == 0) 0 else lens(n - 1)
    // firstCode(l), firstIndex(l), count(l) per length for canonical decode.
    private val count      = new Array[Int](maxLen + 2)
    private val firstCode  = new Array[Long](maxLen + 2)
    private val firstIndex = new Array[Int](maxLen + 2)
    locally {
      lens.foreach(l => count(l) += 1)
      var code = 0L
      var idx  = 0
      var l    = 1
      while (l <= maxLen) {
        firstCode(l) = code
        firstIndex(l) = idx
        code = (code + count(l)) << 1
        idx += count(l)
        l += 1
      }
    }

    // One lookup table over the next tableBits bits of the stream: the
    // entry of every window that starts with a code of at most tableBits
    // bits is (canonical index << 6 | length), else 0. The Kraft check
    // keeps the codes inside the table, and at most 2^tableBits symbols
    // have such codes, so the packed index fits.
    private val tableBits = math.min(maxLen, Decoder.TableBits)
    private val table     = new Array[Int](1 << tableBits)
    locally {
      var k = 0
      while (k < n && lens(k) <= tableBits) {
        val l    = lens(k)
        val base = ((firstCode(l) + k - firstIndex(l)) << (tableBits - l)).toInt
        java.util.Arrays.fill(table, base, base + (1 << (tableBits - l)), (k << 6) | l)
        k += 1
      }
    }

    /** Decode `m` symbols from `bytes`, zigzag-decoded. */
    def decode(bytes: Array[Byte], m: Int): Array[Long] = {
      val out = new Array[Long](m)
      val vs  = vals
      decodeCodes(bytes, m, (i, k) => out(i) = vs(k))
      out
    }

    /** [[decode]] fused with the residual reconstruction of LCP-T: decodes
      * `prev.length` symbols and writes `prev(i) + step(symbol i)` with no
      * intermediate symbol array. `step` runs once per distinct symbol of
      * the table, not once per value. */
    def decodeResiduals(bytes: Array[Byte], prev: Array[Double], step: Long => Double): Array[Double] = {
      val steps = new Array[Double](n)
      var j = 0
      while (j < n) { steps(j) = step(vals(j)); j += 1 }
      val out = new Array[Double](prev.length)
      decodeCodes(bytes, prev.length, (i, k) => out(i) = prev(i) + steps(k))
      out
    }

    /** Decode `m` codes from `bytes`, calling `put(i, k)` with code i's
      * canonical index k. Each 64-bit [[BitPack.window]] of the stream
      * decodes codes by table lookup while a whole table window of its bits
      * is left, so the stream end is checked once per window. A code longer
      * than the table window, and every code in the stream's last
      * `tableBits` bits, takes the checked canonical walk. */
    private def decodeCodes(bytes: Array[Byte], m: Int, put: (Int, Int) => Unit): Unit = {
      require(m == 0 || n > 0, "corrupt Huffman stream")
      val limit  = 8L * bytes.length
      val tb     = tableBits
      val tab    = table
      var bitPos = 0L
      var i      = 0
      while (i < m) {
        val avail = math.min(64L - (bitPos & 7), limit - bitPos).toInt
        var w     = BitPack.window(bytes, bitPos)
        var used  = 0
        var e     = 1
        while (i < m && used + tb <= avail && { e = tab((w >>> (64 - tb)).toInt); e != 0 }) {
          put(i, e >>> 6)
          w <<= e & 63
          used += e & 63
          i += 1
        }
        bitPos += used
        if (i < m && (e == 0 || limit - bitPos < tb)) {
          val s = slowSymbol(bytes, bitPos, limit)
          put(i, (s >>> 6).toInt)
          bitPos += s & 63
          i += 1
        }
      }
    }

    /** The code at `bitPos`, read bit by bit through the canonical tables
      * and never past `limit`: (canonical index << 6 | length). */
    private def slowSymbol(bytes: Array[Byte], bitPos: Long, limit: Long): Long = {
      var code = 0L
      var len  = 0
      var sym  = -1L
      while (sym < 0) {
        len += 1
        require(len <= maxLen && bitPos + len <= limit, "corrupt Huffman stream")
        val p = bitPos + len - 1
        code = (code << 1) | ((bytes((p >>> 3).toInt) >>> (7 - (p & 7).toInt)) & 1)
        val offset = code - firstCode(len)
        if (offset >= 0 && offset < count(len)) sym = ((firstIndex(len) + offset) << 6) | len
      }
      sym
    }
  }
}
