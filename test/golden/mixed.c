struct Frame { double pos; double vel; double acc; double tilt; long seq; };
typedef struct Frame Frame;

Frame *sensor;
double gCmd;
double gTrim;
int gMode;
int gPid;
double gLo;
double gHi;
double gA;
double gB;
double gC;
double gD;
double gE;
double gF;
double gG;

extern void sendControl(double v);
extern int kill(int pid, int sig);

void initShm()
/*** SafeFlow Annotation shminit ***/
{
  int id;
  void *base;
  id = shmget(7100, sizeof(Frame), 438);
  base = shmat(id, (void *) 0, 0);
  sensor = (Frame *) base;
  /*** SafeFlow Annotation
       assume(shmvar(sensor, sizeof(Frame)))
       assume(noncore(sensor)) ***/
}

double adjust(double v, double k)
{
  if (v > k) {
    gTrim = k;
    return v - k;
  }
  return v;
}

int pick(int m)
{
  int r = 0;
  while (r < m) {
    if (r > 3) {
      break;
    }
    r = r + 1;
  }
  return r;
}

int main()
{
  double x;
  double y;
  double out = 0.5;
  int i = 0;
  int j;
  int n = 0;
  double k = 0.0;
  double z;
  double u;
  double v;
  double w;
  double q;
  double p;
  initShm();
  x = sensor->pos;
  y = sensor->vel;
  gPid = 41;
  while (i < 10) {
    if (x > 1.0) {
      gCmd = out;
      if (y > 2.0) {
        break;
      }
      out = adjust(out, 0.25);
    } else {
      if (x < 0.0 - 1.0) {
        gMode = 2;
        break;
      }
      j = 0;
      while (j < 4) {
        if (y > x) {
          gPid = pick(j);
          if (y > 3.0) {
            out = out + 1.0;
            break;
          }
        }
        j = j + 1;
      }
    }
    if (x > 5.0) {
      if (y > 6.0) {
        if (x > 7.0) {
          gTrim = 0.0;
          out = 2.0;
        }
      }
    }
    i = i + 1;
  }
  if (x > 8.0) {
    gC = 1.0;
    gE = 3.0;
    if (x > 9.0) {
      gD = 2.0;
    }
  }
  while (n < 3) {
    if (k > 0.5) {
      gLo = 1.0;
      if (k > 0.7) {
        gHi = 2.0;
      }
      gA = 1.0;
      gB = 2.0;
      gF = 1.0;
      if (n > 1) {
        gG = 2.0;
      }
    }
    k = k + x;
    n = n + 1;
  }
  z = gCmd + gTrim;
  u = gC + gD;
  v = gLo + gHi;
  w = gA + gB;
  q = gC + gE;
  p = gF + gG;
  /*** SafeFlow Annotation assert(safe(out)) ***/
  /*** SafeFlow Annotation assert(safe(z)) ***/
  /*** SafeFlow Annotation assert(safe(u)) ***/
  /*** SafeFlow Annotation assert(safe(v)) ***/
  /*** SafeFlow Annotation assert(safe(w)) ***/
  /*** SafeFlow Annotation assert(safe(q)) ***/
  /*** SafeFlow Annotation assert(safe(p)) ***/
  sendControl(out);
  kill(gPid, 9);
  return 0;
}
